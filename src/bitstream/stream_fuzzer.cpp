#include "bitstream/stream_fuzzer.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "bitstream/bitstream_reader.h"
#include "bitstream/bitstream_writer.h"
#include "bitstream/config_port.h"
#include "bitstream/frame_table.h"
#include "support/rng.h"

namespace jpg {

namespace {

void apply_mutation(std::vector<std::uint32_t>& w, MutationKind kind, Rng& rng,
                    std::span<const Bitstream> corpus) {
  if (w.empty()) return;
  switch (kind) {
    case MutationKind::BitFlip:
      w[rng.uniform(w.size())] ^= 1u << rng.uniform(32);
      return;
    case MutationKind::MultiFlip: {
      const int flips = 2 + static_cast<int>(rng.uniform(7));
      for (int i = 0; i < flips; ++i) {
        w[rng.uniform(w.size())] ^= 1u << rng.uniform(32);
      }
      return;
    }
    case MutationKind::WordRandom:
      w[rng.uniform(w.size())] = static_cast<std::uint32_t>(rng.next());
      return;
    case MutationKind::HeaderGarbage: {
      // A syntactically header-shaped word with random type/op/reg/count:
      // exercises the decoder far more often than uniform garbage would.
      const std::uint32_t type = static_cast<std::uint32_t>(rng.uniform(8));
      const std::uint32_t op = static_cast<std::uint32_t>(rng.uniform(4));
      const std::uint32_t reg = static_cast<std::uint32_t>(rng.uniform(32));
      const std::uint32_t count = static_cast<std::uint32_t>(rng.uniform(2048));
      w[rng.uniform(w.size())] = (type << 29) | (op << 27) | (reg << 13) | count;
      return;
    }
    case MutationKind::Truncate:
      w.resize(1 + rng.uniform(w.size()));
      return;
    case MutationKind::DropWord:
      w.erase(w.begin() + static_cast<std::ptrdiff_t>(rng.uniform(w.size())));
      return;
    case MutationKind::DupWord: {
      const std::size_t i = rng.uniform(w.size());
      w.insert(w.begin() + static_cast<std::ptrdiff_t>(i), w[i]);
      return;
    }
    case MutationKind::InsertWord:
      w.insert(w.begin() + static_cast<std::ptrdiff_t>(rng.uniform(w.size() + 1)),
               static_cast<std::uint32_t>(rng.next()));
      return;
    case MutationKind::Splice: {
      const Bitstream& src = corpus[rng.uniform(corpus.size())];
      if (src.words.empty()) return;
      const std::size_t len = 1 + rng.uniform(std::min<std::size_t>(64, src.words.size()));
      const std::size_t from = rng.uniform(src.words.size() - len + 1);
      const std::size_t at = rng.uniform(w.size() + 1);
      w.insert(w.begin() + static_cast<std::ptrdiff_t>(at),
               src.words.begin() + static_cast<std::ptrdiff_t>(from),
               src.words.begin() + static_cast<std::ptrdiff_t>(from + len));
      return;
    }
  }
}

}  // namespace

std::string_view mutation_kind_name(MutationKind k) {
  switch (k) {
    case MutationKind::BitFlip: return "bit-flip";
    case MutationKind::MultiFlip: return "multi-flip";
    case MutationKind::WordRandom: return "word-random";
    case MutationKind::HeaderGarbage: return "header-garbage";
    case MutationKind::Truncate: return "truncate";
    case MutationKind::DropWord: return "drop-word";
    case MutationKind::DupWord: return "dup-word";
    case MutationKind::InsertWord: return "insert-word";
    case MutationKind::Splice: return "splice";
  }
  return "?";
}

std::string FuzzReport::summary() const {
  std::ostringstream os;
  os << "fuzzed " << iterations << " streams: port "
     << port_rejections << " rejected / " << port_accepts
     << " accepted, reader " << reader_rejections << " rejected / "
     << reader_accepts << " accepted, " << desync_violations
     << " desync violations, " << recovery_failures << " recovery failures, "
     << stream_equiv_failures << " stream-equivalence failures, "
     << bulk_equiv_failures << " bulk-equivalence failures, "
     << table_equiv_failures << " table-equivalence failures\n";
  if (!first_bulk_divergence.empty()) {
    os << "first bulk divergence: " << first_bulk_divergence << "\n";
  }
  os << "mutations:";
  for (int k = 0; k < kNumMutationKinds; ++k) {
    os << " " << mutation_kind_name(static_cast<MutationKind>(k)) << "="
       << mutation_counts[static_cast<std::size_t>(k)];
  }
  return os.str();
}

FuzzReport fuzz_config_streams(const Device& dev, const Bitstream& full_base,
                               std::span<const Bitstream> extra_corpus,
                               const FuzzOptions& opts) {
  JPG_REQUIRE(!full_base.words.empty(), "full base stream is empty");
  const FrameMap& fm = dev.frames();
  const std::size_t fw = fm.frame_words();

  // The tool-side expectation of the plane after a full reload.
  const FrameTable base_table = validate_stream(dev, full_base.words);
  JPG_REQUIRE(base_table.started, "full base stream does not start the device");
  ConfigMemory base_plane(dev);
  apply_frame_table(base_table, full_base.words, base_plane);

  // A small always-valid recovery partial: two patterned frames whose
  // round-trip proves the port decodes and commits again after abuse.
  const std::size_t rec_first = fm.frame_index(1, 3);
  ConfigMemory rec_plane(dev);
  for (std::size_t f = 0; f < 2; ++f) {
    for (std::size_t w = 0; w < fw; ++w) {
      rec_plane.frame(rec_first + f).set_word(
          w, 0xA5000000u ^ (static_cast<std::uint32_t>(f) << 16) ^
                 static_cast<std::uint32_t>(w));
    }
  }
  Bitstream recovery;
  {
    BitstreamWriter w(dev);
    w.begin();
    w.write_cmd(Command::RCRC);
    w.write_reg(ConfigReg::FLR, static_cast<std::uint32_t>(fw - 1));
    w.write_reg(ConfigReg::IDCODE, dev.spec().idcode);
    w.write_cmd(Command::WCFG);
    w.write_reg(ConfigReg::FAR, fm.encode_far(fm.address_of_index(rec_first)));
    w.write_frames(rec_plane, rec_first, 2);
    w.write_crc();
    w.write_cmd(Command::LFRM);
    recovery = w.finish();
  }
  const std::span<const std::uint32_t> rec_expect =
      rec_plane.frame_run(rec_first, 2);

  // The corpus: the full stream, the recovery partial, plus the caller's.
  std::vector<const Bitstream*> corpus_ptrs{&full_base, &recovery};
  for (const Bitstream& bs : extra_corpus) corpus_ptrs.push_back(&bs);
  std::vector<Bitstream> corpus;
  corpus.reserve(corpus_ptrs.size());
  for (const Bitstream* bs : corpus_ptrs) corpus.push_back(*bs);

  Rng rng(opts.seed);
  FuzzReport rep;
  ConfigMemory mem(dev);
  ConfigPort port(mem);
  port.load(full_base);

  // Differential twin: a second port consuming the identical word sequence
  // in chunks — random cuts of the one span, each chunk a subspan of it,
  // as bursts reach a board. Chunking must be invisible to the word-level
  // state machine, so any divergence in throw/accept, sync/started state,
  // or the final plane is a finding. The cuts draw from their own Rng so
  // the mutation campaign itself replays identically with or without this
  // check.
  Rng seg_rng(opts.seed ^ 0x5eedf00dd1ffc0deull);
  ConfigMemory smem(dev);
  ConfigPort sport(smem);
  sport.load(full_base);
  const auto load_chunked = [&seg_rng,
                             &sport](std::span<const std::uint32_t> words) {
    for (std::size_t off = 0; off < words.size();) {
      const std::size_t len =
          1 + seg_rng.uniform(std::min<std::size_t>(97, words.size() - off));
      sport.load(words.subspan(off, len));
      off += len;
    }
  };

  // Word-at-a-time twin: the reference for ConfigPort::load's bulk FDRI
  // ingest. It sees the same traffic as `port`, one load_word per word, and
  // must end every load in the same state: same outcome (exception text),
  // same words_consumed (cumulative, so the throw came at the same word),
  // same committed-frame log and sync/started state; the planes are
  // compared with the other twin's below.
  ConfigMemory wmem(dev);
  ConfigPort wport(wmem);
  for (const std::uint32_t w : full_base.words) wport.load_word(w);
  const auto outcome = [](const auto& load) -> std::string {
    try {
      load();
      return "accepted";
    } catch (const BitstreamError& e) {
      return std::string("threw '") + e.what() + "'";
    }
  };
  const auto bulk_diverged = [&rep](const std::string& why) {
    if (rep.bulk_equiv_failures++ == 0) {
      rep.first_bulk_divergence =
          "iteration " + std::to_string(rep.iterations) + ": " + why;
    }
  };
  // Table twin: a stream that loaded cleanly is read through the
  // TargetPlane of the plane the load started from, its FrameTable and its
  // words, then applied from the table onto a copy of that plane. Both
  // must be the replayed plane, frame for frame, and the table's runs must
  // name the frames the port committed, in commit order. The view is read
  // a stretch at a time under seeded caps, drawn from their own Rng.
  ConfigMemory table_plane(dev);
  Rng cap_rng(opts.seed ^ 0x7ab1e5c0ffee0123ull);
  const auto check_table = [&fm, &rep, &table_plane, &cap_rng, fw](
                               const ConfigPort& replayed,
                               const ConfigMemory& replayed_plane,
                               std::span<const std::uint32_t> words) {
    const FrameTable table = replayed.frame_table();
    {
      const TargetPlane target(table_plane, table, words);
      for (std::size_t f = 0; f < fm.num_frames();) {
        const std::size_t cap = 1 + cap_rng.uniform(fm.num_frames() - f);
        const std::span<const std::uint32_t> got = target.frame_run(f, cap);
        const std::size_t n = got.size() / fw;
        if (n == 0 || n > cap || got.size() != n * fw ||
            !std::ranges::equal(got, replayed_plane.frame_run(f, n))) {
          ++rep.table_equiv_failures;
          break;
        }
        f += n;
      }
    }
    apply_frame_table(table, words, table_plane);
    std::vector<std::size_t> frames;
    for (const FrameRun& run : table.runs) {
      std::size_t f = run.first_frame;
      for (std::size_t i = 0; i < run.frame_count; ++i, f = fm.next_frame(f)) {
        frames.push_back(f);
      }
    }
    if (table_plane != replayed_plane ||
        frames != replayed.committed_frames()) {
      ++rep.table_equiv_failures;
    }
  };
  // Validation twin: validate_stream (a fresh plane-less port) against a
  // port over a plane replaying the same words from power-on reset, with
  // the same end-of-stream check. Both must accept or reject alike (same
  // message), and an accepted stream must give the port's frame table.
  // Returns true when the stream was accepted.
  ConfigMemory cmem(dev);
  ConfigPort cport(cmem);
  const auto check_validate = [&](std::span<const std::uint32_t> words) {
    cport.reset();
    cport.reset_stats();
    const std::string replayed = outcome([&] {
      cport.load(words);
      cport.finish();
    });
    FrameTable table;
    const std::string validated =
        outcome([&] { table = validate_stream(dev, words); });
    if (validated != replayed ||
        (replayed == "accepted" && table != cport.frame_table())) {
      ++rep.table_equiv_failures;
    }
    return replayed == "accepted";
  };
  // Every unmutated corpus stream, replayed from reset over the base.
  for (const Bitstream& bs : corpus) {
    cmem = base_plane;
    table_plane = base_plane;
    if (check_validate(bs.words)) check_table(cport, cmem, bs.words);
  }

  // Returns true when the bulk load threw.
  const auto load_both = [&](std::span<const std::uint32_t> words) {
    port.clear_committed_frames();
    wport.clear_committed_frames();
    table_plane = mem;
    const std::string bulk = outcome([&] { port.load(words); });
    if (bulk == "accepted") check_table(port, mem, words);
    const std::string single = outcome([&] {
      for (const std::uint32_t w : words) wport.load_word(w);
    });
    if (bulk != single || port.words_consumed() != wport.words_consumed() ||
        port.committed_frames() != wport.committed_frames() ||
        port.synced() != wport.synced() || port.started() != wport.started()) {
      std::ostringstream os;
      os << "bulk " << bulk << " after word " << port.words_consumed()
         << ", word-at-a-time " << single << " after word "
         << wport.words_consumed();
      bulk_diverged(os.str());
    }
    return bulk != "accepted";
  };

  for (int it = 0; it < opts.iterations; ++it) {
    ++rep.iterations;
    Bitstream mutated = corpus[rng.uniform(corpus.size())];
    const int nmut =
        1 + static_cast<int>(rng.uniform(
                static_cast<std::uint64_t>(std::max(1, opts.max_mutations))));
    for (int m = 0; m < nmut; ++m) {
      const auto kind =
          static_cast<MutationKind>(rng.uniform(kNumMutationKinds));
      ++rep.mutation_counts[static_cast<std::size_t>(kind)];
      apply_mutation(mutated.words, kind, rng, corpus);
    }

    // Device-side consumer. Only BitstreamError may escape the port; any
    // other exception type propagates out of the harness as a finding.
    const bool threw = load_both(mutated.words);
    threw ? ++rep.port_rejections : ++rep.port_accepts;
    (void)check_validate(mutated.words);
    if (threw && port.synced()) ++rep.desync_violations;

    bool stream_threw = false;
    try {
      load_chunked(mutated.words);
    } catch (const BitstreamError&) {
      stream_threw = true;
    }
    if (stream_threw != threw || sport.synced() != port.synced() ||
        sport.started() != port.started()) {
      ++rep.stream_equiv_failures;
    }

    // Offline parser: same contract, plus far_blocks on accepted parses.
    try {
      const BitstreamReader reader(mutated);
      (void)reader.far_blocks(fw);
      (void)reader.idcode();
      ++rep.reader_accepts;
    } catch (const BitstreamError&) {
      ++rep.reader_rejections;
    }

    // Recovery contract: whatever the mutated stream did, ABORT plus a
    // valid stream must decode cleanly and land its frames.
    port.abort();
    wport.abort();
    try {
      if (load_both(recovery.words) ||
          !std::ranges::equal(port.readback_frames(rec_first, 2),
                              rec_expect)) {
        ++rep.recovery_failures;
      }
    } catch (const JpgError&) {
      ++rep.recovery_failures;
    }
    try {
      sport.abort();
      load_chunked(recovery.words);
    } catch (const JpgError&) {
      ++rep.stream_equiv_failures;
    }
    // After identical traffic plus identical recovery, the twins' planes
    // must agree word for word.
    if (smem != mem) ++rep.stream_equiv_failures;
    if (wmem != mem) bulk_diverged("planes differ");

    if (opts.full_reload_every > 0 && (it + 1) % opts.full_reload_every == 0) {
      port.abort();
      wport.abort();
      try {
        if (load_both(full_base.words) || mem != base_plane) {
          ++rep.recovery_failures;
        }
      } catch (const JpgError&) {
        ++rep.recovery_failures;
      }
      if (wmem != mem) bulk_diverged("planes differ");
      try {
        sport.abort();
        load_chunked(full_base.words);
        if (smem != base_plane) ++rep.stream_equiv_failures;
      } catch (const JpgError&) {
        ++rep.stream_equiv_failures;
      }
    }
  }
  return rep;
}

}  // namespace jpg
