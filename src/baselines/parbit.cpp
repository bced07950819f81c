#include "baselines/parbit.h"

#include <sstream>

#include "bitstream/bitgen.h"
#include "bitstream/bitstream_writer.h"
#include "bitstream/config_port.h"
#include "support/string_util.h"

namespace jpg {

namespace {

/// Options file dialect:
///   mode column|block
///   source R1C7:R16C10      # 1-based inclusive block
///   target R1C13            # top-left corner of the destination
ParbitOptions parse_options(std::string_view text, const std::string& filename) {
  ParbitOptions opts;
  bool have_source = false;
  int line_no = 0;
  for (const std::string& raw : split(text, '\n')) {
    ++line_no;
    const std::string_view line = trim(raw);
    if (line.empty() || line[0] == '#') continue;
    const auto tokens = split_ws(line);
    auto fail = [&](const std::string& why) -> ParseError {
      return ParseError(filename, line_no, why);
    };
    if (tokens[0] == "mode" && tokens.size() == 2) {
      if (iequals(tokens[1], "column")) {
        opts.mode = ParbitOptions::Mode::Column;
      } else if (iequals(tokens[1], "block")) {
        opts.mode = ParbitOptions::Mode::Block;
      } else {
        throw fail("unknown mode '" + tokens[1] + "'");
      }
    } else if (tokens[0] == "source" && tokens.size() == 2) {
      const auto parts = split(tokens[1], ':');
      auto parse_rc = [&](const std::string& s, int& r, int& c) {
        const std::size_t cpos = s.find('C', 1);
        if (s.empty() || s[0] != 'R' || cpos == std::string::npos) {
          throw fail("bad coordinate '" + s + "'");
        }
        const auto rr = parse_uint(std::string_view(s).substr(1, cpos - 1));
        const auto cc = parse_uint(std::string_view(s).substr(cpos + 1));
        if (!rr || !cc || *rr < 1 || *cc < 1) {
          throw fail("bad coordinate '" + s + "'");
        }
        r = static_cast<int>(*rr) - 1;
        c = static_cast<int>(*cc) - 1;
      };
      if (parts.size() != 2) throw fail("source wants R..C..:R..C..");
      parse_rc(parts[0], opts.source.r0, opts.source.c0);
      parse_rc(parts[1], opts.source.r1, opts.source.c1);
      have_source = true;
    } else if (tokens[0] == "target" && tokens.size() == 2) {
      const std::string& s = tokens[1];
      const std::size_t cpos = s.find('C', 1);
      if (s.empty() || s[0] != 'R' || cpos == std::string::npos) {
        throw fail("bad target '" + s + "'");
      }
      const auto rr = parse_uint(std::string_view(s).substr(1, cpos - 1));
      const auto cc = parse_uint(std::string_view(s).substr(cpos + 1));
      if (!rr || !cc || *rr < 1 || *cc < 1) throw fail("bad target '" + s + "'");
      opts.target_r0 = static_cast<int>(*rr) - 1;
      opts.target_c0 = static_cast<int>(*cc) - 1;
    } else {
      throw fail("unknown option '" + tokens[0] + "'");
    }
  }
  if (!have_source) {
    throw JpgError("parbit options missing 'source'");
  }
  return opts;
}

}  // namespace

ParbitOptions ParbitOptions::parse(std::string_view text,
                                   const std::string& filename) {
  ParbitOptions opts = parse_options(text, filename);
  if (opts.target_r0 == 0 && opts.target_c0 == 0 && !opts.relocated()) {
    // Default target = source corner (covers files without a 'target').
    opts.target_r0 = opts.source.r0;
    opts.target_c0 = opts.source.c0;
  }
  return opts;
}

std::string ParbitOptions::to_text() const {
  std::ostringstream os;
  os << "# parbit options\n";
  os << "mode " << (mode == Mode::Column ? "column" : "block") << "\n";
  os << "source R" << (source.r0 + 1) << "C" << (source.c0 + 1) << ":R"
     << (source.r1 + 1) << "C" << (source.c1 + 1) << "\n";
  os << "target R" << (target_r0 + 1) << "C" << (target_c0 + 1) << "\n";
  return os.str();
}

ParbitResult parbit_transform(const Bitstream& new_design,
                              const Bitstream& target,
                              const ParbitOptions& opts) {
  const Device& dev = device_for_bitstream(new_design);
  const FrameMap& fm = dev.frames();
  JPG_REQUIRE(opts.source.in_bounds(dev), "source block out of bounds");
  const int dc = opts.target_c0 - opts.source.c0;
  const int dr = opts.target_r0 - opts.source.r0;
  const Region dest{opts.source.r0 + dr, opts.source.c0 + dc,
                    opts.source.r1 + dr, opts.source.c1 + dc};
  JPG_REQUIRE(dest.in_bounds(dev), "target block out of bounds");
  if (opts.mode == ParbitOptions::Mode::Column && dr != 0) {
    // Column mode ships whole frames, and a frame is a full-height
    // bit-column: there is no row to rewrite, so a vertical shift is a
    // structural impossibility, not a routing concern. Reject it up front
    // with the same typed error the PbitRelocator's checker uses.
    throw RelocError(RelocError::Kind::VerticalColumnMode,
                     "column mode cannot relocate vertically (dr=" +
                         std::to_string(dr) + "); use block mode");
  }

  // Load the new design's configuration plane.
  ConfigMemory fresh(dev);
  {
    ConfigPort port(fresh);
    port.load(new_design);
  }

  // Block mode needs the current (target) plane for the row merge.
  ConfigMemory current(dev);
  if (opts.mode == ParbitOptions::Mode::Block) {
    const Device& tdev = device_for_bitstream(target);
    JPG_REQUIRE(&tdev == &dev, "new and target bitstreams disagree on device");
    ConfigPort port(current);
    port.load(target);
  }

  // Compose the frames to ship, column by column.
  BitstreamWriter w(dev);
  w.begin();
  w.write_cmd(Command::RCRC);
  w.write_reg(ConfigReg::FLR, static_cast<std::uint32_t>(fm.frame_words() - 1));
  w.write_reg(ConfigReg::IDCODE, dev.spec().idcode);
  w.write_cmd(Command::WCFG);

  ParbitResult result;
  ConfigMemory staged(dev);  // destination-frame scratch
  for (int sc = opts.source.c0; sc <= opts.source.c1; ++sc) {
    const int tc = sc + dc;
    const int smajor = fm.major_of_clb_col(sc);
    const int tmajor = fm.major_of_clb_col(tc);
    const std::size_t n_minors =
        static_cast<std::size_t>(fm.frames_in_major(smajor));
    for (std::size_t minor = 0; minor < n_minors; ++minor) {
      const std::size_t sidx = fm.frame_index(smajor, static_cast<int>(minor));
      const std::size_t tidx = fm.frame_index(tmajor, static_cast<int>(minor));
      BitSpan frame = staged.frame(tidx);
      if (opts.mode == ParbitOptions::Mode::Column) {
        // Column mode ships the full source frame rows as-is (relocation of
        // whole columns); out-of-block rows come from the new design too.
        frame.set_words(fresh.frame(sidx).words());
      } else {
        // Copy the block rows (relocated by dr) from the new design over
        // the current frame. Row windows are contiguous, so the whole
        // block is one word-level blit.
        frame.set_words(current.frame(tidx).words());
        frame.copy_range(fresh.frame(sidx), fm.row_bit_base(opts.source.r0),
                         fm.row_bit_base(opts.source.r0 + dr),
                         static_cast<std::size_t>(opts.source.height()) *
                             FrameMap::kBitsPerRow);
      }
    }
    // One FAR + FDRI run per destination column.
    w.write_reg(ConfigReg::FAR, fm.encode_far(
                                    {0, static_cast<std::uint32_t>(tmajor), 0}));
    w.write_frames(staged, fm.frame_index(tmajor, 0), n_minors);
    result.frames += n_minors;
  }

  w.write_crc();
  w.write_cmd(Command::LFRM);
  result.bitstream = w.finish();
  return result;
}

}  // namespace jpg
