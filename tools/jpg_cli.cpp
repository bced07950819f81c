// jpg_cli: the command-line surface of the JPG tool.
//
//   jpg_cli info <file.bit>                      device + payload summary
//   jpg_cli summarize <file.bit>                 packet-level dump
//   jpg_cli partial <base.bit> <mod.xdl> <mod.ucf> -o <out.pbit> [--diff]
//                                                option 1: emit a partial
//   jpg_cli apply <base.bit> <partial.pbit> -o <updated.bit>
//                                                option 2: write onto base
//   jpg_cli floorplan <base.bit> <mod.ucf>       Figure-3 view of the target
//   jpg_cli verify <base.bit> <partial.pbit>     load on a simulated board,
//                                                read back, compare
//   jpg_cli relocate <base.bit> <partial.pbit> --from R..C..:R..C..
//                    --to R..C.. -o <out.pbit> [--force]
//                                                retarget a pbit at a
//                                                geometry-compatible region
//                                                (containment-checked; the
//                                                result equals generate-at-B)
//   jpg_cli attest <base.bit> [partial.pbit ...] [--corrupt F:W:MASK]
//                                                readback audit of a
//                                                simulated board against the
//                                                plane reconstructed from
//                                                base + applied pbits
//   jpg_cli project-new <dir> <base.bit> <name>
//   jpg_cli project-add <dir> <name> <mod.xdl> <mod.ucf>
//   jpg_cli project-build <dir> <outdir>         partial for every module
//   jpg_cli pnr <part> <generator> <param> [--seed S] [--threads N] [--ref]
//                                                run the P&R flow on a
//                                                netlib design; the printed
//                                                digest is thread-invariant
//   jpg_cli fuzzcfg [--iterations N] [--seed S] [--device PART]
//                                                malformed-bitstream fuzz of
//                                                the configuration decoders
//   jpg_cli download <base.bit> <partial.pbit> [--flip P] [--drop P] ...
//                                                verified download over a
//                                                fault-injecting sim board
//   jpg_cli stats [--part PART] [--seed S]       run a self-contained mini
//                                                flow (PnR, partial gen with
//                                                a cache hit, verified
//                                                download) and print the
//                                                metrics snapshot
//   jpg_cli serve [--part PART] [--boards N] [--tenants N] [--requests N]
//                 [--rate HZ] [--seed S] [--queue-depth N] [--quota N]
//                 [--slots N] [--variants N]
//                                                multi-tenant reconfiguration
//                                                service loadgen: replay an
//                                                open-loop Poisson swap
//                                                workload and print latency
//                                                percentiles + throughput
//   jpg_cli proptest [--device PART] [--seed S] [--count N] [--raw-seed R]
//                    [--cycles C] [--shrink] [--repro-dir DIR] [--fault-tier]
//                                                property-based differential
//                                                sweep: random designs through
//                                                the full flow vs golden sim;
//                                                failures print a one-command
//                                                repro line and --shrink
//                                                writes a minimised .repro
//
// Global flags (any command):
//   --metrics <file>   write the process metrics snapshot as JSON on exit
//   --trace <file>     record trace spans, write Chrome trace JSON on exit
// An unwritable --metrics/--trace path exits with status 3 (the command's
// own work has already happened at that point and is reported first).
#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bitstream/bitgen.h"
#include "bitstream/bitstream_reader.h"
#include "bitstream/bitstream_writer.h"
#include "bitstream/stream_fuzzer.h"
#include "cbits/cbits.h"
#include "core/jpg.h"
#include "core/project.h"
#include "core/relocate.h"
#include "hwif/faulty_board.h"
#include "hwif/sim_board.h"
#include "hwif/verified_downloader.h"
#include "netlib/generators.h"
#include "service/load_harness.h"
#include "service/reconfig_service.h"
#include "support/string_util.h"
#include "support/telemetry/telemetry.h"
#include "pnr/flow.h"
#include "sched/task_graph.h"
#include "testing/design_gen.h"
#include "testing/oracle.h"
#include "testing/sched_oracle.h"
#include "testing/shrinker.h"
#include "ucf/ucf_parser.h"

namespace jpg::cli {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw JpgError("cannot open '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

int cmd_info(int argc, char** argv) {
  if (argc != 1) throw JpgError("usage: jpg_cli info <file.bit>");
  const Bitstream bs = Bitstream::load(argv[0]);
  const BitstreamReader reader(bs);
  std::printf("file          : %s\n", argv[0]);
  std::printf("words         : %zu (%zu bytes)\n", bs.words.size(),
              bs.size_bytes());
  if (const auto idcode = reader.idcode()) {
    const DeviceSpec& spec = DeviceSpec::by_idcode(*idcode);
    std::printf("device        : %s (%dx%d CLBs)\n", spec.name.c_str(),
                spec.clb_rows, spec.clb_cols);
    const Device& dev = Device::get(spec.name);
    const auto blocks = reader.far_blocks(dev.frames().frame_words());
    std::size_t frames = 0;
    for (const auto& [far, n] : blocks) frames += n;
    std::printf("FAR blocks    : %zu (%zu frames of %zu total)\n",
                blocks.size(), frames, dev.frames().num_frames());
    const bool full = frames >= dev.frames().num_frames();
    std::printf("kind          : %s bitstream\n", full ? "complete" : "partial");
  } else {
    std::printf("device        : unknown (no IDCODE write)\n");
  }
  return 0;
}

int cmd_summarize(int argc, char** argv) {
  if (argc != 1) throw JpgError("usage: jpg_cli summarize <file.bit>");
  const BitstreamReader reader(Bitstream::load(argv[0]));
  std::printf("%s", reader.summarize().c_str());
  return 0;
}

int cmd_partial(int argc, char** argv) {
  std::string out;
  PartialGenOptions opts;
  std::vector<std::string> pos;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--diff") == 0) {
      opts.diff_only = true;
    } else {
      pos.emplace_back(argv[i]);
    }
  }
  if (pos.size() != 3 || out.empty()) {
    throw JpgError(
        "usage: jpg_cli partial <base.bit> <mod.xdl> <mod.ucf> -o <out.pbit> "
        "[--diff]");
  }
  Jpg tool(Bitstream::load(pos[0]));
  const auto res = tool.generate_partial_from_text(read_file(pos[1]),
                                                   read_file(pos[2]), opts);
  res.partial.save(out);
  std::printf("%s", res.floorplan.c_str());
  std::printf("wrote %s: %zu bytes, %zu frames in %zu FAR blocks (%zu CBits "
              "calls)\n",
              out.c_str(), res.partial.size_bytes(), res.frames.size(),
              res.far_blocks, res.cbits_calls);
  return 0;
}

int cmd_apply(int argc, char** argv) {
  std::string out;
  std::vector<std::string> pos;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      pos.emplace_back(argv[i]);
    }
  }
  if (pos.size() != 2 || out.empty()) {
    throw JpgError(
        "usage: jpg_cli apply <base.bit> <partial.pbit> -o <updated.bit>");
  }
  const Bitstream partial = Bitstream::load(pos[1]);
  ConfigMemory mem = plane_from_full_bitstream(Bitstream::load(pos[0]));
  const FrameTable table = validate_stream(mem.device(), partial.words);
  apply_frame_table(table, partial.words, mem);
  generate_full_bitstream(mem).save(out);
  std::size_t frames = 0;
  for (const FrameRun& run : table.runs) frames += run.frame_count;
  std::printf("wrote %s (base + %zu partial frames)\n", out.c_str(), frames);
  return 0;
}

int cmd_floorplan(int argc, char** argv) {
  if (argc != 2) {
    throw JpgError("usage: jpg_cli floorplan <base.bit> <mod.ucf>");
  }
  const Device& dev = device_for_bitstream(Bitstream::load(argv[0]));
  const UcfData ucf = parse_ucf(read_file(argv[1]), dev, argv[1]);
  std::vector<FloorplanEntry> entries;
  for (const auto& [group, region] : ucf.area_group_ranges) {
    entries.push_back({group, region});
  }
  const auto highlight = entries.empty()
                             ? std::nullopt
                             : std::optional<Region>(entries[0].region);
  std::printf("%s", render_floorplan(dev, entries, highlight).c_str());
  return 0;
}

int cmd_verify(int argc, char** argv) {
  if (argc != 2) {
    throw JpgError("usage: jpg_cli verify <base.bit> <partial.pbit>");
  }
  const Bitstream base = Bitstream::load(argv[0]);
  const Bitstream partial = Bitstream::load(argv[1]);
  ConfigMemory expected = plane_from_full_bitstream(base);
  const Device& dev = expected.device();
  const FrameTable table = validate_stream(dev, partial.words);
  apply_frame_table(table, partial.words, expected);

  // Board bring-up, download, then frame-by-frame readback comparison.
  SimBoard board(dev);
  board.send_config(base.words);
  board.send_config(partial.words);
  std::size_t bad = 0;
  for (const std::size_t frame : table.touched) {
    if (!std::ranges::equal(board.readback(frame, 1),
                            expected.frame(frame).words())) {
      ++bad;
    }
  }
  std::printf("readback verification: %zu frames checked, %zu mismatches\n",
              table.touched.size(), bad);
  return bad == 0 ? 0 : 1;
}

/// Parses a 1-based "R<r>C<c>" coordinate (the PARBIT options dialect).
void parse_rc(const std::string& s, int& r, int& c) {
  const std::size_t cpos = s.find('C', 1);
  if (s.empty() || s[0] != 'R' || cpos == std::string::npos) {
    throw JpgError("bad coordinate '" + s + "' (want R<row>C<col>, 1-based)");
  }
  const auto rr = parse_uint(std::string_view(s).substr(1, cpos - 1));
  const auto cc = parse_uint(std::string_view(s).substr(cpos + 1));
  if (!rr || !cc || *rr < 1 || *cc < 1) {
    throw JpgError("bad coordinate '" + s + "' (want R<row>C<col>, 1-based)");
  }
  r = static_cast<int>(*rr) - 1;
  c = static_cast<int>(*cc) - 1;
}

int cmd_relocate(int argc, char** argv) {
  std::string out, from, to;
  bool force = false;
  std::vector<std::string> pos;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc) out = argv[++i];
    else if (std::strcmp(argv[i], "--from") == 0 && i + 1 < argc)
      from = argv[++i];
    else if (std::strcmp(argv[i], "--to") == 0 && i + 1 < argc) to = argv[++i];
    else if (std::strcmp(argv[i], "--force") == 0) force = true;
    else pos.emplace_back(argv[i]);
  }
  if (pos.size() != 2 || out.empty() || from.empty() || to.empty()) {
    throw JpgError(
        "usage: jpg_cli relocate <base.bit> <partial.pbit> "
        "--from R..C..:R..C.. --to R..C.. -o <out.pbit> [--force]");
  }
  const ConfigMemory plane = plane_from_full_bitstream(Bitstream::load(pos[0]));
  const Bitstream partial = Bitstream::load(pos[1]);

  const auto parts = split(from, ':');
  if (parts.size() != 2) throw JpgError("--from wants R..C..:R..C..");
  Region src;
  parse_rc(parts[0], src.r0, src.c0);
  parse_rc(parts[1], src.r1, src.c1);
  int tr = 0, tc = 0;
  parse_rc(to, tr, tc);
  const Region dst{tr, tc, tr + src.height() - 1, tc + src.width() - 1};

  const PartialBitstreamGenerator gen(plane);
  const PbitRelocator reloc(gen);
  const ConfigMemory decoded = reloc.decode(partial, src);
  const RelocCompat compat = reloc.check(decoded, src, dst);
  std::printf("shape         : %s\n",
              compat.shape_ok ? "compatible" : compat.shape_detail.c_str());
  std::printf("containment   : %zu crossing(s)%s\n", compat.crossings.size(),
              compat.drives_long_lines() ? " (drives long lines)" : "");
  for (std::size_t i = 0; i < compat.crossings.size() && i < 8; ++i) {
    std::printf("  crossing    : %s\n", compat.crossings[i].detail.c_str());
  }
  RelocOptions ropts;
  ropts.require_containment = !force;
  const PartialGenResult res = reloc.relocate(partial, src, dst, ropts);
  res.bitstream.save(out);
  std::printf("wrote %s (%s -> %s, %zu frames in %zu FAR blocks)\n",
              out.c_str(), src.to_string().c_str(), dst.to_string().c_str(),
              res.frames.size(), res.far_blocks);
  return 0;
}

int cmd_attest(int argc, char** argv) {
  std::vector<std::string> pos;
  std::vector<std::array<std::uint64_t, 3>> corruptions;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--corrupt") == 0 && i + 1 < argc) {
      const auto fields = split(argv[++i], ':');
      if (fields.size() != 3) throw JpgError("--corrupt wants FRAME:WORD:MASK");
      corruptions.push_back({std::strtoull(fields[0].c_str(), nullptr, 0),
                             std::strtoull(fields[1].c_str(), nullptr, 0),
                             std::strtoull(fields[2].c_str(), nullptr, 0)});
    } else {
      pos.emplace_back(argv[i]);
    }
  }
  if (pos.empty()) {
    throw JpgError(
        "usage: jpg_cli attest <base.bit> [partial.pbit ...] "
        "[--corrupt FRAME:WORD:MASK]");
  }
  const Bitstream base = Bitstream::load(pos[0]);
  const ConfigMemory base_plane = plane_from_full_bitstream(base);
  const Device& dev = base_plane.device();
  std::vector<Bitstream> applied;
  for (std::size_t i = 1; i < pos.size(); ++i) {
    applied.push_back(Bitstream::load(pos[i]));
  }

  // Board bring-up with base + every partial, then (optionally) plant
  // strays the audit must flag.
  SimBoard board(dev);
  board.send_config(base.words);
  for (const Bitstream& p : applied) board.send_config(p.words);
  for (const auto& [frame, word, mask] : corruptions) {
    board.corrupt_frame_word(frame, word, static_cast<std::uint32_t>(mask));
  }

  const ConfigMemory expected =
      reconstruct_expected_plane(base_plane, applied);
  VerifiedDownloader dl(board, dev);
  const AttestReport rep = dl.attest(expected);
  std::printf("%s\n", rep.summary().c_str());
  for (const AttestFinding& f : rep.findings) {
    std::printf("  stray       : %s word %zu expected %08x got %08x\n",
                f.address.c_str(), f.word, f.expected, f.got);
  }
  return rep.attested ? 0 : 1;
}

int cmd_project_new(int argc, char** argv) {
  if (argc != 3) {
    throw JpgError("usage: jpg_cli project-new <dir> <base.bit> <name>");
  }
  JpgProject p;
  p.name = argv[2];
  p.base = Bitstream::load(argv[1]);
  p.device_part = device_for_bitstream(p.base).spec().name;
  p.save(argv[0]);
  std::printf("created project '%s' in %s (device %s)\n", p.name.c_str(),
              argv[0], p.device_part.c_str());
  return 0;
}

int cmd_project_add(int argc, char** argv) {
  if (argc != 4) {
    throw JpgError(
        "usage: jpg_cli project-add <dir> <name> <mod.xdl> <mod.ucf>");
  }
  JpgProject p = JpgProject::load(argv[0]);
  p.modules.push_back({argv[1], read_file(argv[2]), read_file(argv[3])});
  p.save(argv[0]);
  std::printf("added module '%s' (%zu modules total)\n", argv[1],
              p.modules.size());
  return 0;
}

int cmd_project_build(int argc, char** argv) {
  if (argc != 2) {
    throw JpgError("usage: jpg_cli project-build <dir> <outdir>");
  }
  const JpgProject p = JpgProject::load(argv[0]);
  Jpg tool(p.base);
  std::filesystem::create_directories(argv[1]);
  for (const JpgModuleEntry& m : p.modules) {
    const auto res = tool.generate_partial_from_text(m.xdl_text, m.ucf_text);
    const std::string out =
        std::string(argv[1]) + "/" + m.name + ".pbit";
    res.partial.save(out);
    std::printf("%-16s -> %s (%zu bytes, %zu frames)\n", m.name.c_str(),
                out.c_str(), res.partial.size_bytes(), res.frames.size());
  }
  return 0;
}

int cmd_pnr(int argc, char** argv) {
  std::uint64_t seed = 1;
  int threads = 0;
  bool ref = false;
  std::vector<std::string> pos;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--ref") == 0) {
      ref = true;
    } else {
      pos.emplace_back(argv[i]);
    }
  }
  if (pos.size() != 3) {
    throw JpgError(
        "usage: jpg_cli pnr <part> <generator> <param> [--seed S] "
        "[--threads N] [--ref]");
  }
  const Device& dev = Device::get(pos[0]);
  const netlib::GeneratorInfo* gen = nullptr;
  for (const netlib::GeneratorInfo& g : netlib::registry()) {
    if (g.name == pos[1]) gen = &g;
  }
  if (gen == nullptr) {
    std::string known;
    for (const netlib::GeneratorInfo& g : netlib::registry()) {
      known += " " + g.name;
    }
    throw JpgError("unknown generator '" + pos[1] + "'; known:" + known);
  }
  FlowOptions opt;
  opt.seed = seed;
  opt.router.num_threads = threads;
  opt.router.reference_impl = ref;
  const BaseFlowResult res =
      run_base_flow(dev, gen->make(std::atoi(pos[2].c_str())), {}, opt);

  // FNV-1a over the routed nets, so runs at different --threads values can
  // be diffed for byte-identity by comparing one line of output.
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const RoutedNet& rn : res.design->routes) {
    mix(rn.net);
    for (const RoutedPip& p : rn.pips) {
      mix(static_cast<std::uint64_t>(p.tile.r));
      mix(static_cast<std::uint64_t>(p.tile.c));
      mix(static_cast<std::uint64_t>(p.dest_local));
      mix(p.sel);
    }
    for (const IobRoute& p : rn.iob_pips) {
      mix(p.site.side == Side::Left ? 0u : 1u);
      mix(static_cast<std::uint64_t>(p.site.row));
      mix(static_cast<std::uint64_t>(p.site.k));
      mix(p.omux_sel);
    }
  }
  std::printf("design        : %s param %s on %s (seed %llu)\n", pos[1].c_str(),
              pos[2].c_str(), dev.spec().name.c_str(),
              static_cast<unsigned long long>(seed));
  std::printf("packed        : %zu slices\n", res.pack_stats.slices);
  std::printf("routed        : %zu nets, %zu pips, %d iterations, %zu rounds "
              "(%zu retries)\n",
              res.design->routes.size(), res.route_stats.total_pips,
              res.route_stats.iterations, res.route_stats.spec_rounds,
              res.route_stats.spec_retries);
  std::printf("route digest  : %016llx\n", static_cast<unsigned long long>(h));
  return 0;
}

int cmd_fuzzcfg(int argc, char** argv) {
  FuzzOptions opts;
  std::string part = "XCV50";
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--iterations") == 0 && i + 1 < argc) {
      opts.iterations = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--device") == 0 && i + 1 < argc) {
      part = argv[++i];
    } else if (std::strcmp(argv[i], "--max-mutations") == 0 && i + 1 < argc) {
      opts.max_mutations = std::atoi(argv[++i]);
    } else {
      throw JpgError(
          "usage: jpg_cli fuzzcfg [--iterations N] [--seed S] "
          "[--device PART] [--max-mutations M]");
    }
  }
  const Device& dev = Device::get(part);
  const FrameMap& fm = dev.frames();
  const std::size_t fw = fm.frame_words();

  // Self-contained fixtures: a patterned full plane plus a small partial,
  // so the corpus holds both stream shapes the decoders must survive.
  ConfigMemory plane(dev);
  for (std::size_t f = 0; f < fm.num_frames(); f += 7) {
    for (std::size_t w = 0; w < fw; w += 3) {
      plane.frame(f).set_word(w, 0xC3000000u ^
                                     (static_cast<std::uint32_t>(f) << 8) ^
                                     static_cast<std::uint32_t>(w));
    }
  }
  const Bitstream full = generate_full_bitstream(plane);
  Bitstream partial;
  {
    BitstreamWriter w(dev);
    w.begin();
    w.write_cmd(Command::RCRC);
    w.write_reg(ConfigReg::FLR, static_cast<std::uint32_t>(fw - 1));
    w.write_reg(ConfigReg::IDCODE, dev.spec().idcode);
    w.write_cmd(Command::WCFG);
    w.write_reg(ConfigReg::FAR, fm.encode_far(fm.address_of_index(2)));
    w.write_frames(plane, 2, 3);
    w.write_crc();
    w.write_cmd(Command::LFRM);
    partial = w.finish();
  }

  // Relocated-stream corpus: a LUT-patterned module pbit generated at one
  // column plus its PbitRelocator retarget near the right edge. Mutants of
  // relocated streams replay through the same differential chunked-load
  // harness as the rest of the corpus, so a FAR-rewrite bug that only
  // manifests after chunked delivery still counts as a finding.
  const ConfigMemory empty_base(dev);
  const PartialBitstreamGenerator gen(empty_base);
  ConfigMemory modplane(dev);
  {
    CBits cb(modplane);
    for (int r = 0; r < dev.spec().clb_rows; ++r) {
      cb.set_lut(SliceSite{r, 1, 0}, LutSel::F,
                 static_cast<std::uint16_t>(0x5A5Au ^ (r * 131)));
    }
  }
  const Region reloc_src{0, 1, dev.spec().clb_rows - 1, 1};
  const Region reloc_dst{0, dev.spec().clb_cols - 2, dev.spec().clb_rows - 1,
                         dev.spec().clb_cols - 2};
  const PbitRelocator reloc(gen);
  const Bitstream at_src = gen.generate(modplane, reloc_src).bitstream;
  const Bitstream relocated =
      reloc.relocate(at_src, reloc_src, reloc_dst).bitstream;

  const std::array<Bitstream, 3> extra{partial, at_src, relocated};
  const FuzzReport rep = fuzz_config_streams(dev, full, extra, opts);
  std::printf("%s\n", rep.summary().c_str());
  std::printf("verdict       : %s\n", rep.clean() ? "clean" : "FINDINGS");
  return rep.clean() ? 0 : 1;
}

int cmd_download(int argc, char** argv) {
  FaultProfile profile;
  DownloadPolicy policy;
  std::uint64_t seed = 1;
  std::vector<std::string> pos;
  for (int i = 0; i < argc; ++i) {
    auto num = [&](double& out) {
      if (i + 1 >= argc) throw JpgError("missing value for " +
                                        std::string(argv[i]));
      out = std::atof(argv[++i]);
    };
    if (std::strcmp(argv[i], "--flip") == 0) num(profile.word_flip);
    else if (std::strcmp(argv[i], "--drop") == 0) num(profile.word_drop);
    else if (std::strcmp(argv[i], "--dup") == 0) num(profile.word_dup);
    else if (std::strcmp(argv[i], "--trunc") == 0) num(profile.truncate);
    else if (std::strcmp(argv[i], "--rb-flip") == 0) num(profile.readback_flip);
    else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
      seed = std::strtoull(argv[++i], nullptr, 10);
    else if (std::strcmp(argv[i], "--budget") == 0 && i + 1 < argc)
      profile.fault_budget = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--attempts") == 0 && i + 1 < argc)
      policy.max_attempts = std::atoi(argv[++i]);
    else pos.emplace_back(argv[i]);
  }
  if (pos.size() != 2) {
    throw JpgError(
        "usage: jpg_cli download <base.bit> <partial.pbit> [--flip P] "
        "[--drop P] [--dup P] [--trunc P] [--rb-flip P] [--seed S] "
        "[--budget N] [--attempts N]");
  }
  const Bitstream base = Bitstream::load(pos[0]);
  const Bitstream partial = Bitstream::load(pos[1]);
  const ConfigMemory base_plane = plane_from_full_bitstream(base);
  const Device& dev = base_plane.device();

  // Bring the simulated board up with the base design over a clean link,
  // then run the partial through the verified downloader over the faulty
  // one — the scenario of paper option 2 with an unreliable cable.
  SimBoard board(dev);
  board.send_config(base.words);
  FaultyBoard faulty(board, profile, seed);
  VerifiedDownloader dl(faulty, dev, policy);
  dl.assume_board_state(base_plane);
  const DownloadReport rep = dl.download_partial(partial);
  std::printf("%s\n", rep.summary().c_str());
  for (const std::string& line : rep.fault_log) {
    std::printf("  fault       : %s\n", line.c_str());
  }
  std::printf("board faults  : %zu injected\n", faulty.faults_injected());
  return rep.status == DownloadStatus::Failed ||
                 rep.status == DownloadStatus::Rejected
             ? 1
             : 0;
}

int cmd_stats(int argc, char** argv) {
  std::string part = "XCV50";
  std::uint64_t seed = 1;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--part") == 0 && i + 1 < argc) {
      part = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      throw JpgError("usage: jpg_cli stats [--part PART] [--seed S]");
    }
  }
  const Device& dev = Device::get(part);

  // A representative run through every instrumented subsystem: P&R a small
  // design, generate a partial twice (miss then cache hit), then push it
  // through the verified downloader over a simulated board.
  FlowOptions fopt;
  fopt.seed = seed;
  const BaseFlowResult flow =
      run_base_flow(dev, netlib::make_counter(4), {}, fopt);
  std::printf("pnr           : %zu slices, %d route iterations\n",
              flow.pack_stats.slices, flow.route_stats.iterations);

  ConfigMemory base_plane(dev);
  const Bitstream full = generate_full_bitstream(base_plane);
  const Region region{0, 6, dev.rows() - 1, 9};
  ConfigMemory module_plane(dev);
  for (const int major : region.clb_majors(dev)) {
    const std::size_t idx = dev.frames().frame_index(major, 0);
    module_plane.frame(idx).set_word(1, 0xA5A5A5A5u);
  }
  PartialBitstreamGenerator gen(base_plane);
  const PartialGenResult miss = gen.generate(module_plane, region);
  const PartialGenResult hit = gen.generate(module_plane, region);
  std::printf("partial gen   : %zu frames, %zu bytes (second call cache_hit="
              "%llu)\n",
              miss.frames.size(), miss.bitstream.size_bytes(),
              static_cast<unsigned long long>(hit.telemetry.counter(
                  "cache_hit")));

  SimBoard board(dev);
  VerifiedDownloader dl(board, dev);
  const DownloadReport full_rep = dl.download_full(full);
  const DownloadReport part_rep = dl.download_partial(miss.bitstream);
  std::printf("download      : full %s, partial %s\n",
              std::string(download_status_name(full_rep.status)).c_str(),
              std::string(download_status_name(part_rep.status)).c_str());

  std::printf("%s\n",
              telemetry::MetricsRegistry::global().snapshot().to_json().c_str());
  return 0;
}

int cmd_serve(int argc, char** argv) {
  std::string part = "XCV50";
  std::size_t boards = 2, tenants = 4, slots = 2, variants = 4;
  std::size_t requests = 200;
  double rate_hz = 0;
  std::uint64_t seed = 1;
  ServiceConfig cfg;
  for (int i = 0; i < argc; ++i) {
    const auto num = [&](std::size_t& out) {
      out = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    };
    if (std::strcmp(argv[i], "--part") == 0 && i + 1 < argc) {
      part = argv[++i];
    } else if (std::strcmp(argv[i], "--boards") == 0 && i + 1 < argc) {
      num(boards);
    } else if (std::strcmp(argv[i], "--tenants") == 0 && i + 1 < argc) {
      num(tenants);
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      num(requests);
    } else if (std::strcmp(argv[i], "--slots") == 0 && i + 1 < argc) {
      num(slots);
    } else if (std::strcmp(argv[i], "--variants") == 0 && i + 1 < argc) {
      num(variants);
    } else if (std::strcmp(argv[i], "--queue-depth") == 0 && i + 1 < argc) {
      num(cfg.queue_depth);
    } else if (std::strcmp(argv[i], "--quota") == 0 && i + 1 < argc) {
      num(cfg.tenant_quota);
    } else if (std::strcmp(argv[i], "--rate") == 0 && i + 1 < argc) {
      rate_hz = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      throw JpgError(
          "usage: jpg_cli serve [--part PART] [--boards N] [--tenants N] "
          "[--requests N] [--rate HZ] [--seed S] [--queue-depth N] "
          "[--quota N] [--slots N] [--variants N]");
    }
  }
  const Device& dev = Device::get(part);
  const LoadFixture fx = make_load_fixture(dev, seed, slots, variants);
  ReconfigService svc(dev, fx.base, boards, cfg);
  PoissonLoadOptions opt;
  opt.requests = requests;
  opt.tenants = tenants;
  opt.rate_hz = rate_hz;
  opt.seed = seed;
  const PoissonLoadResult res = run_poisson_load(svc, fx, opt);
  svc.shutdown();
  const ServiceStats st = svc.stats();

  std::printf("service       : %s, %zu boards, %zu tenants, %zu slots x %zu "
              "variants\n",
              part.c_str(), boards, tenants, slots, variants);
  std::printf("load          : %zu requests, offered %.1f req/s (%s)\n",
              requests, res.offered_rate_hz,
              rate_hz > 0 ? "open-loop Poisson" : "back-to-back");
  std::printf("completed     : %zu (%zu resident hits), rejected %zu, "
              "failed %zu\n",
              res.completed, res.resident_hits, res.rejected, res.failed);
  std::printf("latency       : p50 %.2f ms, p99 %.2f ms\n",
              static_cast<double>(percentile_ns(res.latencies_ns, 50)) / 1e6,
              static_cast<double>(percentile_ns(res.latencies_ns, 99)) / 1e6);
  std::printf("throughput    : %.1f swaps/s over %.2f s\n", res.swaps_per_sec(),
              res.elapsed_sec);
  std::printf("queue         : peak %zu of depth %zu; %llu dispatches, "
              "%llu DRR quanta\n",
              st.queue_peak, cfg.queue_depth,
              static_cast<unsigned long long>(st.dispatched),
              static_cast<unsigned long long>(st.drr_quanta));
  for (const auto& [name, ts] : st.tenants) {
    std::printf("tenant %-7s: %llu done, %llu rejected, %llu resident hits, "
                "%llu quota evictions (peak %zu of quota %zu)\n",
                name.c_str(), static_cast<unsigned long long>(ts.completed),
                static_cast<unsigned long long>(ts.rejected),
                static_cast<unsigned long long>(ts.resident_hits),
                static_cast<unsigned long long>(ts.quota_evictions),
                ts.resident_peak, cfg.tenant_quota);
  }
  return res.failed == 0 ? 0 : 1;
}

int cmd_proptest(int argc, char** argv) {
  std::string part = "XCV50";
  std::uint64_t seed = 1;
  std::uint64_t raw_seed = 0;
  bool have_raw = false;
  int count = 20;
  bool shrink = false;
  std::string repro_dir = "proptest-repros";
  testing::OracleOptions oopt;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--device") == 0 && i + 1 < argc) {
      part = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--raw-seed") == 0 && i + 1 < argc) {
      raw_seed = std::strtoull(argv[++i], nullptr, 10);
      have_raw = true;
    } else if (std::strcmp(argv[i], "--count") == 0 && i + 1 < argc) {
      count = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--cycles") == 0 && i + 1 < argc) {
      oopt.cycles = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--shrink") == 0) {
      shrink = true;
    } else if (std::strcmp(argv[i], "--fault-tier") == 0) {
      oopt.fault_tier = true;
    } else if (std::strcmp(argv[i], "--repro-dir") == 0 && i + 1 < argc) {
      repro_dir = argv[++i];
    } else {
      throw JpgError(
          "usage: jpg_cli proptest [--device PART] [--seed S] [--count N] "
          "[--raw-seed R] [--cycles C] [--shrink] [--repro-dir DIR] "
          "[--fault-tier]");
    }
  }

  std::size_t passed = 0, failed = 0, infeasible = 0, properties = 0;
  const auto run_one = [&](std::uint64_t rs) {
    const testing::GeneratedDesign design = testing::generate_sampled(part, rs);
    const testing::OracleResult res = testing::run_oracle(design, oopt);
    properties += res.properties_checked;
    switch (res.status) {
      case testing::OracleStatus::Pass:
        ++passed;
        return;
      case testing::OracleStatus::Infeasible:
        ++infeasible;
        std::printf("infeasible    : raw-seed %llu (%s: %s)\n",
                    static_cast<unsigned long long>(rs), res.property.c_str(),
                    res.detail.c_str());
        return;
      case testing::OracleStatus::Fail:
        break;
    }
    ++failed;
    std::printf("FAIL          : property %s — %s\n", res.property.c_str(),
                res.detail.c_str());
    std::printf("  repro       : jpg_cli proptest --device %s --raw-seed %llu"
                " --cycles %d%s\n",
                part.c_str(), static_cast<unsigned long long>(rs), oopt.cycles,
                oopt.fault_tier ? " --fault-tier" : "");
    if (shrink) {
      const testing::ShrinkReport rep = testing::shrink_design(
          design,
          [&](const testing::GeneratedDesign& d) {
            return testing::run_oracle(d, oopt);
          });
      const std::string path = testing::write_repro(
          repro_dir, rep.minimised, rep.failure, rep.cells_before);
      std::printf("  shrunk      : %zu -> %zu cells in %zu oracle runs\n",
                  rep.cells_before, rep.cells_after, rep.oracle_runs);
      std::printf("  repro file  : %s\n", path.c_str());
    }
  };

  if (have_raw) {
    run_one(raw_seed);
  } else {
    // Per-design seeds come from split(), so any single design replays
    // standalone from its printed raw seed, independent of count/order.
    const Rng root(seed);
    for (int i = 0; i < count; ++i) {
      run_one(root.split(static_cast<std::uint64_t>(i)).next());
    }
  }
  std::printf("proptest      : %s — %zu designs: %zu pass, %zu fail, "
              "%zu infeasible (%zu properties checked)\n",
              part.c_str(), passed + failed + infeasible, passed, failed,
              infeasible, properties);
  return failed == 0 ? 0 : 1;
}

// `sched` — the scheduler oracle sweep (docs/SCHEDULER.md): random task
// graphs run as concurrent apps on an AcceleratorScheduler over the shared
// uniform-socket fixture, each batch checked against the property chain of
// testing/sched_oracle.h. Any failure replays standalone from its printed
// raw seed.
int cmd_sched(int argc, char** argv) {
  std::string part = "XCV50";
  std::uint64_t seed = 1;
  std::uint64_t raw_seed = 0;
  bool have_raw = false;
  int count = 20;
  int batch = 4;
  testing::SchedOracleOptions sopt;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--device") == 0 && i + 1 < argc) {
      part = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--raw-seed") == 0 && i + 1 < argc) {
      raw_seed = std::strtoull(argv[++i], nullptr, 10);
      have_raw = true;
    } else if (std::strcmp(argv[i], "--count") == 0 && i + 1 < argc) {
      count = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      batch = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--cycles") == 0 && i + 1 < argc) {
      sopt.sim_cycles = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--boards") == 0 && i + 1 < argc) {
      sopt.num_boards = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--fault-tier") == 0) {
      sopt.fault_tier = true;
    } else if (std::strcmp(argv[i], "--defrag") == 0) {
      sopt.defrag_mid_run = true;
    } else {
      throw JpgError(
          "usage: jpg_cli sched [--device PART] [--seed S] [--count N] "
          "[--batch B] [--raw-seed R] [--cycles C] [--boards N] "
          "[--fault-tier] [--defrag]");
    }
  }
  JPG_REQUIRE(count >= 1 && batch >= 1, "count and batch must be positive");

  const sched::SchedFixture& fixture = sched::SchedFixture::shared(part);
  sched::TaskGraphOptions gopt;
  gopt.num_impls = fixture.impls_per_kernel();

  std::size_t passed = 0, failed = 0, properties = 0;
  std::uint64_t dep_violations = 0;
  // One raw seed = one batch of graphs run as concurrent apps, so a failure
  // replays standalone with --raw-seed regardless of count/order.
  const auto run_one = [&](std::uint64_t rs, int graphs_in_batch) {
    Rng rng(rs);
    std::vector<sched::TaskGraph> graphs;
    for (int g = 0; g < graphs_in_batch; ++g) {
      graphs.push_back(sched::random_task_graph(
          rng, fixture.kernels(), gopt, "app" + std::to_string(g)));
    }
    const testing::SchedOracleResult res =
        testing::run_sched_oracle(fixture, graphs, sopt);
    properties += res.properties_checked;
    dep_violations += res.sched_stats.dep_violations;
    if (res.ok()) {
      passed += graphs.size();
      return;
    }
    failed += graphs.size();
    std::printf("FAIL          : property %s — %s\n", res.property.c_str(),
                res.detail.c_str());
    std::printf("  repro       : jpg_cli sched --device %s --raw-seed %llu "
                "--batch %d --cycles %d%s%s\n",
                part.c_str(), static_cast<unsigned long long>(rs),
                graphs_in_batch, sopt.sim_cycles,
                sopt.fault_tier ? " --fault-tier" : "",
                sopt.defrag_mid_run ? " --defrag" : "");
  };

  if (have_raw) {
    run_one(raw_seed, batch);
  } else {
    const Rng root(seed);
    std::uint64_t batch_idx = 0;
    for (int done = 0; done < count; done += batch) {
      const int n = std::min(batch, count - done);
      run_one(root.split(batch_idx++).next(), n);
    }
  }
  std::printf("sched         : %s — %zu graphs: %zu pass, %zu fail "
              "(%zu properties checked, %llu dependency violations)\n",
              part.c_str(), passed + failed, passed, failed, properties,
              static_cast<unsigned long long>(dep_violations));
  return failed == 0 && dep_violations == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "jpg_cli — partial bitstream generation (jpg-cpp)\n"
               "commands: info summarize partial apply floorplan verify\n"
               "          relocate attest project-new project-add\n"
               "          project-build pnr fuzzcfg download stats serve\n"
               "          proptest sched\n"
               "global flags: [--metrics <file>] [--trace <file>]\n");
  return 2;
}

}  // namespace
}  // namespace jpg::cli

namespace jpg::cli {
namespace {

int dispatch(const std::string& cmd, int argc, char** argv) {
  if (cmd == "info") return cmd_info(argc, argv);
  if (cmd == "summarize") return cmd_summarize(argc, argv);
  if (cmd == "partial") return cmd_partial(argc, argv);
  if (cmd == "apply") return cmd_apply(argc, argv);
  if (cmd == "floorplan") return cmd_floorplan(argc, argv);
  if (cmd == "verify") return cmd_verify(argc, argv);
  if (cmd == "relocate") return cmd_relocate(argc, argv);
  if (cmd == "attest") return cmd_attest(argc, argv);
  if (cmd == "project-new") return cmd_project_new(argc, argv);
  if (cmd == "project-add") return cmd_project_add(argc, argv);
  if (cmd == "project-build") return cmd_project_build(argc, argv);
  if (cmd == "pnr") return cmd_pnr(argc, argv);
  if (cmd == "fuzzcfg") return cmd_fuzzcfg(argc, argv);
  if (cmd == "download") return cmd_download(argc, argv);
  if (cmd == "stats") return cmd_stats(argc, argv);
  if (cmd == "serve") return cmd_serve(argc, argv);
  if (cmd == "proptest") return cmd_proptest(argc, argv);
  if (cmd == "sched") return cmd_sched(argc, argv);
  return usage();
}

}  // namespace
}  // namespace jpg::cli

int main(int argc, char** argv) {
  using namespace jpg::cli;
  if (argc < 2) return usage();

  // Strip the global telemetry flags wherever they appear, so every command
  // composes with them: jpg_cli partial ... --metrics run.json --trace t.json
  std::string metrics_path;
  std::string trace_path;
  std::vector<char*> rest;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (rest.empty()) return usage();
  const std::string cmd = rest[0];
  if (!trace_path.empty()) {
    jpg::telemetry::TraceBuffer::global().set_enabled(true);
  }

  int rc;
  try {
    rc = dispatch(cmd, static_cast<int>(rest.size()) - 1, rest.data() + 1);
  } catch (const jpg::JpgError& e) {
    std::fprintf(stderr, "jpg_cli %s: error: %s\n", cmd.c_str(), e.what());
    rc = 1;
  }

  // Telemetry export happens after the command (success or not); a path we
  // cannot write is its own failure class so scripts can tell it apart.
  if (!metrics_path.empty() &&
      !jpg::telemetry::MetricsRegistry::global().write_json(metrics_path)) {
    return 3;
  }
  if (!trace_path.empty() &&
      !jpg::telemetry::TraceBuffer::global().write_chrome_trace(trace_path)) {
    return 3;
  }
  return rc;
}
