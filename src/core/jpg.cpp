#include "core/jpg.h"

#include <algorithm>

#include "bitstream/bitgen.h"
#include "support/log.h"
#include "support/telemetry/telemetry.h"

namespace jpg {

Jpg::Jpg(const Bitstream& base_bitstream)
    : base_(std::make_unique<ConfigMemory>(
          plane_from_full_bitstream(base_bitstream))),
      device_(&base_->device()) {
  gen_ = std::make_unique<PartialBitstreamGenerator>(*base_);
  JPG_INFO("JPG initialised from base bitstream for " << device_->spec().name);
}

Jpg::PartialResult Jpg::generate_partial(const XdlDesign& module_xdl,
                                         const UcfData& ucf,
                                         const PartialGenOptions& opts) {
  JPG_SPAN("jpg.generate_partial");
  // The paper's pipeline: parse XDL -> make CBits calls on a scratch plane.
  ConfigMemory scratch(*device_);
  const XdlBindResult bound = bind_xdl_module(module_xdl, ucf, scratch);

  // Then extract the partial bitstream against the base design.
  PartialGenResult pg = gen_->generate(scratch, bound.region, opts);

  PartialResult result;
  result.partial = std::move(pg.bitstream);
  result.frames = std::move(pg.frames);
  result.far_blocks = pg.far_blocks;
  result.cbits_calls = bound.cbits_calls;
  result.region = bound.region;
  result.floorplan = render_floorplan(
      *device_, {{module_xdl.name, bound.region}}, bound.region);
  return result;
}

Jpg::PartialResult Jpg::generate_partial_from_text(
    std::string_view xdl_text, std::string_view ucf_text,
    const PartialGenOptions& opts) {
  const XdlDesign xdl = parse_xdl(xdl_text, "module.xdl");
  const UcfData ucf = parse_ucf(ucf_text, *device_, "module.ucf");
  return generate_partial(xdl, ucf, opts);
}

void Jpg::write_onto_base(const PartialResult& update) {
  // validate_stream checks the partial stream (framing, CRC, FLR, IDCODE,
  // no packet cut short). Only a stream valid to its last word then
  // overwrites the base plane — the "overwrite the original bitstream"
  // behaviour of option 2 — so a malformed one leaves the tool's base
  // untouched.
  const std::span<const std::uint32_t> words = update.partial.words;
  apply_frame_table(validate_stream(*device_, words), words, *base_);
  if (connected()) {
    download(update.partial);
  }
}

Bitstream Jpg::full_bitstream() const {
  return generate_full_bitstream(*base_);
}

void Jpg::download(const Bitstream& bs) {
  JPG_REQUIRE(connected(), "no XHWIF board connected");
  board_->send_config(bs.words);
}

DownloadReport Jpg::download_verified(const PartialResult& update,
                                      const DownloadPolicy& policy) {
  JPG_REQUIRE(connected(), "no XHWIF board connected");
  const std::span<const std::uint32_t> words = update.partial.words;
  FrameTable table;
  try {
    table = validate_stream(*device_, words);
  } catch (const JpgError& e) {
    return rejected_download(e);
  }
  VerifiedDownloader dl(*board_, *device_, policy);
  // The tool's model of the board is the base design it was initialised
  // from (option 2's premise); seed the downloader's mirror with it.
  dl.assume_board_state(*base_);
  return dl.download_validated(words, table,
                               std::max<std::size_t>(1, words.size()));
}

std::size_t Jpg::verify_via_readback(const PartialResult& update) {
  JPG_REQUIRE(connected(), "no XHWIF board connected");
  const std::span<const std::uint32_t> words = update.partial.words;
  const TargetPlane expected(*base_, validate_stream(*device_, words), words);
  VerifiedDownloader dl(*board_, *device_);
  const std::size_t mismatches =
      dl.mismatched_frames(expected, update.frames).size();
  JPG_INFO("readback verification: " << update.frames.size() << " frames, "
                                     << mismatches << " mismatches");
  return mismatches;
}

}  // namespace jpg
