// Malformed-bitstream fuzz harness for the configuration decoders.
//
// Replays seeded mutations of valid configuration streams through both
// stream consumers — ConfigPort (the device-side state machine) and
// BitstreamReader (the offline packet parser) — and checks the hardening
// contract: every rejection is a clean BitstreamError (no crash, no abort,
// no foreign exception type), a port that throws is desynced, and after any
// mutated stream the port is fully recoverable by an ABORT + a valid
// stream. The engine is deterministic from its seed; the same (seed,
// iterations) pair replays the identical campaign, which is how fuzz-found
// regressions become unit tests.
//
// Both the `fuzzcfg` CLI command and the fuzz test suite drive this one
// engine, so CI and interactive runs exercise the same code.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "bitstream/packet.h"
#include "device/device.h"

namespace jpg {

struct FuzzOptions {
  int iterations = 1000;
  std::uint64_t seed = 1;
  /// Mutations applied per iteration: uniform in [1, max_mutations].
  int max_mutations = 4;
  /// Every N iterations, reload the full base stream and require the whole
  /// plane to come back byte-identical (0 disables the periodic check).
  int full_reload_every = 100;
};

/// The mutation operators, applied to the 32-bit word stream.
enum class MutationKind : int {
  BitFlip,        ///< flip one bit of one word
  MultiFlip,      ///< flip 2..8 bits across the stream
  WordRandom,     ///< replace one word with random garbage
  HeaderGarbage,  ///< replace one word with a crafted packet header
  Truncate,       ///< cut the stream at a random word
  DropWord,       ///< remove one word
  DupWord,        ///< duplicate one word
  InsertWord,     ///< insert one random word
  Splice,         ///< insert a run copied from another corpus stream
};
inline constexpr int kNumMutationKinds = 9;

[[nodiscard]] std::string_view mutation_kind_name(MutationKind k);

struct FuzzReport {
  int iterations = 0;
  int port_rejections = 0;  ///< ConfigPort threw BitstreamError
  int port_accepts = 0;     ///< mutated stream loaded without protest
  int reader_rejections = 0;
  int reader_accepts = 0;
  /// Port still claimed sync after throwing — contract violation.
  int desync_violations = 0;
  /// ABORT + valid stream failed to restore the port/plane — contract
  /// violation.
  int recovery_failures = 0;
  /// The scatter-gather burst path diverged from the word-by-word load on
  /// the identical word sequence (throw/accept, sync/started state, or
  /// final plane) — contract violation: chunking must be invisible.
  int stream_equiv_failures = 0;
  /// ConfigPort::load's bulk ingest diverged from a word-at-a-time
  /// load_word twin on the identical traffic (exception text or the word
  /// it was thrown at, words_consumed, committed-frame log, sync/started
  /// state, or plane) — contract violation: bulk ingest must be invisible.
  int bulk_equiv_failures = 0;
  /// The first bulk divergence, described (empty when there was none).
  std::string first_bulk_divergence;
  std::array<int, kNumMutationKinds> mutation_counts{};

  /// True when every contract held. (Accept/reject counts are
  /// informational: many mutations are semantically harmless.)
  [[nodiscard]] bool clean() const {
    return desync_violations == 0 && recovery_failures == 0 &&
           stream_equiv_failures == 0 && bulk_equiv_failures == 0;
  }
  [[nodiscard]] std::string summary() const;
};

/// Runs the campaign against `dev`. `full_base` must be a valid complete
/// bitstream for `dev` (it seeds the plane, serves as mutation corpus, and
/// is the periodic full-recovery stream); `extra_corpus` adds more valid
/// streams (typically partials) to mutate. Throws only on harness bugs —
/// decoder misbehaviour is reported, not thrown.
[[nodiscard]] FuzzReport fuzz_config_streams(
    const Device& dev, const Bitstream& full_base,
    std::span<const Bitstream> extra_corpus, const FuzzOptions& opts = {});

}  // namespace jpg
