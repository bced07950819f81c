// Jpg: the tool facade, mirroring the usage flow of paper §3.2.1:
//
//   "The complete bitstream file from the base design is used to initialize
//    the environment variables in the JPG tool. ... The .ucf and .xdl files
//    obtained from the previous steps are passed in as input. ... The tool
//    offers two options. One option is to obtain the partial bitstream of
//    the new design, without downloading ... Option two allows the designer
//    to write the partial bitstream onto the base design. ... If there is a
//    FPGA board connected ... the newly generated partial bitstream is
//    written onto the FPGA."
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/floorplan_view.h"
#include "core/partial_gen.h"
#include "core/xdl_to_cbits.h"
#include "hwif/verified_downloader.h"
#include "hwif/xhwif.h"

namespace jpg {

class Jpg {
 public:
  /// Initialises the environment from the base design's complete bitstream
  /// (plane_from_full_bitstream: device identified by IDCODE, the whole
  /// stream validated, and it must start the device).
  explicit Jpg(const Bitstream& base_bitstream);

  [[nodiscard]] const Device& device() const { return *device_; }
  [[nodiscard]] const ConfigMemory& base_config() const { return *base_; }

  struct PartialResult {
    Bitstream partial;                ///< option 1 output: the .pbit
    std::vector<std::size_t> frames;  ///< frames the stream writes
    std::size_t far_blocks = 0;
    std::size_t cbits_calls = 0;      ///< work done by the XDL binder
    Region region;
    std::string floorplan;  ///< Figure 3: the target area, for verification
  };

  /// Generates a partial bitstream from a module's XDL + UCF (option 1).
  [[nodiscard]] PartialResult generate_partial(
      const XdlDesign& module_xdl, const UcfData& ucf,
      const PartialGenOptions& opts = {});

  /// Same, from file contents as the real tool consumes them.
  [[nodiscard]] PartialResult generate_partial_from_text(
      std::string_view xdl_text, std::string_view ucf_text,
      const PartialGenOptions& opts = {});

  /// Option 2: writes the update onto the base design, overwriting the
  /// tool's copy of the base configuration ("care should therefore be taken
  /// before modifying the original bitstream"). The whole stream is
  /// validated first: a malformed update throws BitstreamError and leaves
  /// the base unchanged. If a board is connected the partial bitstream is
  /// downloaded as well.
  void write_onto_base(const PartialResult& update);

  /// The (possibly updated) base design as a complete bitstream.
  [[nodiscard]] Bitstream full_bitstream() const;

  // --- Board attachment (XHWIF) ------------------------------------------------
  void connect(Xhwif* board) { board_ = board; }
  [[nodiscard]] bool connected() const { return board_ != nullptr; }
  /// Unverified download: sends the stream to the board as one buffer.
  /// Zero-copy streaming of a resident pbit lease goes through
  /// stream_to_board (fire-and-forget) or VerifiedDownloader::
  /// download_validated (sends it in bursts, then reads the board back)
  /// directly.
  void download(const Bitstream& bs);

  /// Fault-tolerant variant of download + verify_via_readback: sends the
  /// update through a VerifiedDownloader seeded with the tool's base plane
  /// (JPG's model: the board holds the base design; partial streams are
  /// state-independent, so this also covers a board running another module
  /// variant in the same region). The whole update is validated (framing,
  /// CRC, no packet cut short) by validate_stream before the first word is
  /// sent — a malformed one is rejected "nothing sent" — then
  /// readback-verified frame by frame, repaired under the policy's retry
  /// budget, and rolled back to the base plane if it will not converge.
  /// The tool's base configuration is not modified.
  [[nodiscard]] DownloadReport download_verified(
      const PartialResult& update, const DownloadPolicy& policy = {});

  /// Reads the update's frames back from the connected board and compares
  /// them, through the downloader's readback comparator, against what the
  /// partial bitstream installs over the base. Returns the number of
  /// mismatching frames (0 = verified); an unreadable frame counts as one.
  /// The update is validated first: a malformed one throws BitstreamError.
  [[nodiscard]] std::size_t verify_via_readback(const PartialResult& update);

  /// The tool's persistent partial generator; its pbit cache makes cycling
  /// a module pool regenerate nothing after the first pass (cache keys hash
  /// the base content, so write_onto_base invalidates naturally).
  [[nodiscard]] const PartialBitstreamGenerator& generator() const {
    return *gen_;
  }

 private:
  std::unique_ptr<ConfigMemory> base_;
  const Device* device_;
  std::unique_ptr<PartialBitstreamGenerator> gen_;
  Xhwif* board_ = nullptr;
};

}  // namespace jpg
