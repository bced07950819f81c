// VerifiedDownloader: fault-tolerant configuration over any XHWIF board.
//
// The paper's end-to-end claim is that a generated partial bitstream can be
// written onto a live device; the fire-and-forget send_config path trusts
// the link and the stream completely. This wrapper makes the download
// *verified*, and every download takes one pipeline: validate the whole
// stream, then send it, then converge. Validation replays every word
// tool-side (framing, CRC, a stream that ends inside a packet) — once,
// when it was published, for a resident lease; at the top of the download
// for caller-supplied bytes. A stream malformed anywhere is rejected with
// nothing sent. The send is an ABORT followed by the stream's bursts, then
// a readback of exactly the frames the stream writes, compared
// word-for-word against the intended contents (plus, under full_sweep,
// every other frame of the plane), and mismatched frames are rewritten by
// targeted repair streams under a bounded retry budget. When the budget is spent the downloader rolls the
// touched frames back to the pre-update plane, so the device is always in
// one of exactly two states: the update applied and verified, or the
// previous configuration — never half-written.
//
// The downloader keeps a tool-side mirror (the last plane it verified onto
// the board); repair and rollback streams are generated from it, which is
// what makes recovery possible without re-reading the whole device.
//
// Every partial download is one primitive: a stream's words and its
// FrameTable against the mirror. Caller bytes are first validated into a
// table by validate_stream; a resident lease brings the table its publish
// recorded. The intended plane is a
// TargetPlane view — the stream's own words for the frames the table
// writes, the mirror for the rest — so nothing is copied to hold it. On
// Success the table is applied to the mirror; on every other exit the
// mirror was never written, so there is nothing to undo.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bitstream/config_memory.h"
#include "bitstream/frame_table.h"
#include "bitstream/packet.h"
#include "hwif/burst_engine.h"
#include "hwif/xhwif.h"
#include "support/error.h"
#include "support/telemetry/telemetry.h"

namespace jpg {

struct DownloadPolicy {
  /// Send attempts per download (the initial send plus targeted repairs).
  int max_attempts = 4;
  /// Send attempts for the rollback stream after the update is given up on.
  int rollback_max_attempts = 4;
  /// After the touched frames verify, read back every other frame too: a
  /// corrupted-but-valid FAR can land frames outside the touched set, and
  /// only a sweep catches those strays. Together the two reads cover the
  /// whole plane once after the last send.
  bool full_sweep = true;
};

enum class DownloadStatus {
  Success,     ///< update applied; readback matches the intended plane
  RolledBack,  ///< update abandoned; readback matches the pre-update plane
  Rejected,    ///< stream rejected tool-side; nothing sent, board untouched
  Failed,      ///< the update and its rollback failed; board state unknown
};

struct DownloadReport {
  DownloadStatus status = DownloadStatus::Failed;
  int attempts = 0;           ///< update sends, including repair streams
  int rollback_attempts = 0;  ///< rollback sends
  std::size_t frames_touched = 0;   ///< frames the stream writes
  std::size_t frames_verified = 0;  ///< readback comparisons performed
  std::size_t frames_repaired = 0;  ///< mismatches rewritten by repairs
  std::size_t faults_seen = 0;      ///< send/readback exceptions caught
  std::vector<std::string> fault_log;  ///< one line per caught fault
  std::string error;  ///< why the download failed (Rejected, Failed)
  /// Wall time plus this download's own tallies (words_sent,
  /// readback_words, repair_rounds, aborts).
  telemetry::StageSnapshot telemetry;

  [[nodiscard]] bool ok() const { return status == DownloadStatus::Success; }
  [[nodiscard]] std::string summary() const;
};

[[nodiscard]] std::string_view download_status_name(DownloadStatus s);

/// One configuration word that does not match the attested plane — the
/// shape of a bitstream-Trojan detection (Ender et al.): a stray write
/// that slipped past the per-download verification, or tampering that
/// happened after the last download.
struct AttestFinding {
  std::size_t frame = 0;     ///< linear frame index
  std::string address;       ///< human-readable "maj/min" frame address
  std::size_t word = 0;      ///< first mismatching word within the frame
  std::uint32_t expected = 0;
  std::uint32_t got = 0;
};

/// Result of a full-plane readback audit.
struct AttestReport {
  bool attested = false;            ///< plane matches, all frames read back
  std::size_t frames_audited = 0;   ///< frames compared
  std::size_t frames_unreadable = 0;  ///< readback failures (not attested)
  std::vector<AttestFinding> findings;  ///< stray words, frame-accurate

  [[nodiscard]] bool ok() const { return attested; }
  [[nodiscard]] std::string summary() const;
};

/// Validates each of the `applied` partial bitstreams (validate_stream)
/// and applies its frame table, in order, onto a copy of `base`: the plane
/// a healthy device must hold after those downloads. Relocated
/// pbits compose like any other — the expectation is wherever they were
/// actually targeted. Throws BitstreamError on a malformed pbit.
[[nodiscard]] ConfigMemory reconstruct_expected_plane(
    const ConfigMemory& base, std::span<const Bitstream> applied);

/// Zeroes the FF capture bits of one frame's readback words in place when
/// `frame` is a capture minor (CLB minors 16/17) — the readback-mask-file
/// rule. `words` must be one frame's worth.
void mask_capture_words_inplace(const Device& device, std::size_t frame,
                                std::span<std::uint32_t> words);

/// The report of a download rejected tool-side before any traffic:
/// Rejected, "stream rejected tool-side, nothing sent: <why>".
[[nodiscard]] DownloadReport rejected_download(const JpgError& why);

class VerifiedDownloader {
 public:
  /// `board` and `device` must outlive the downloader.
  VerifiedDownloader(Xhwif& board, const Device& device,
                     const DownloadPolicy& policy = {});

  /// Downloads a complete bitstream, establishing the mirror. The whole
  /// stream is validated first and must start the device; nothing is sent
  /// otherwise. Success additionally requires the DONE pin — every frame
  /// can be correct while a truncated stream dropped the START command.
  DownloadReport download_full(const Bitstream& full);

  /// Downloads a partial bitstream against the established mirror: a
  /// download_stream with one burst covering the whole stream.
  DownloadReport download_partial(const Bitstream& partial);

  /// Streaming (ICAP-style) partial download. The whole stream is first
  /// validated into a frame table (validate_stream); a stream
  /// malformed anywhere, or cut off inside a packet, is rejected "nothing
  /// sent" with no board traffic at all. Then it takes download_validated's
  /// path.
  DownloadReport download_stream(std::span<const std::uint32_t> words,
                                 std::size_t burst_words = kDefaultBurstWords);

  /// The verified download primitive, for a stream validated tool-side
  /// ahead of time: `table` is validate_stream() of exactly `words` on
  /// this device (a table that does not fit `words` throws before any
  /// traffic). `words` goes out in bursts of at most `burst_words` words,
  /// each a subspan of `words` — no staging copy; a send fault ends the
  /// send. The touched frames (and, under full_sweep, every other frame)
  /// are then readback-verified against the TargetPlane of mirror, table
  /// and words, repaired, and on persistent failure rolled back.
  DownloadReport download_validated(
      std::span<const std::uint32_t> words, const FrameTable& table,
      std::size_t burst_words = kDefaultBurstWords);

  /// The readback comparator every verification here uses: reads back
  /// `frames` (sorted) and returns those whose words differ from `target`,
  /// FF capture bits masked. A frame that cannot be read back
  /// counts as differing.
  [[nodiscard]] std::vector<std::size_t> mismatched_frames(
      const TargetPlane& target, const std::vector<std::size_t>& frames);

  /// Full-plane readback audit: reads back every frame of the device and
  /// compares it word-for-word against `expected`, masking FF capture
  /// bits. Unlike the per-download verification (which checks the
  /// frames a stream touches, plus a sweep against the mirror), attest()
  /// takes the *reconstructed* expectation — base + every applied pbit —
  /// so it catches strays in any frame, including tampering that happened
  /// between downloads. Read-only: never writes to the board.
  [[nodiscard]] AttestReport attest(const ConfigMemory& expected);

  /// Audits against the downloader's own mirror (the last verified plane).
  [[nodiscard]] AttestReport attest();

  /// Declares that the board already holds `plane` (a tool that loaded the
  /// base design through other means seeds the mirror this way).
  void assume_board_state(const ConfigMemory& plane);

  [[nodiscard]] bool has_mirror() const { return mirror_ != nullptr; }
  /// The last plane verified onto the board. Requires has_mirror().
  [[nodiscard]] const ConfigMemory& mirror() const;

 private:
  /// Emits a stream rewriting exactly `frames` (sorted) from `target`,
  /// optionally ending with a START command (full-download repairs).
  [[nodiscard]] Bitstream build_frames_stream(
      const TargetPlane& target, const std::vector<std::size_t>& frames,
      bool ensure_started) const;

  /// Index of the first word where readback `got` of `frame` differs from
  /// `want`, or got.size() if none does. The FF capture bits of a capture
  /// frame are ignored (the readback-mask discipline): live state captured
  /// into the plane is not a configuration mismatch.
  [[nodiscard]] std::size_t first_mismatch(
      std::size_t frame, std::span<const std::uint32_t> got,
      std::span<const std::uint32_t> want) const;

  /// Reads back the `count` frames from `first` and calls
  /// on_mismatch(frame, word, readback words, target words) for each frame
  /// that differs from `target` at `word` (first_mismatch), in frame
  /// order. Each stretch of `target` (TargetPlane::frame_run) is compared
  /// whole first; only one that differs is compared frame by frame.
  /// Readback faults propagate.
  template <typename OnMismatch>
  void compare_run(const TargetPlane& target, std::size_t first,
                   std::size_t count, OnMismatch&& on_mismatch);

  /// Reads back the `count` frames from `first` and appends those
  /// differing from `target` to `bad` — all of them when the readback
  /// fails — counting the readback words and verified frames.
  void verify_run(const TargetPlane& target, std::size_t first,
                  std::size_t count, std::vector<std::size_t>& bad,
                  DownloadReport& rep);

  /// Reads back `frames` (sorted) and returns those differing from
  /// `target`, one readback per run of consecutive frames.
  [[nodiscard]] std::vector<std::size_t> verify_against(
      const TargetPlane& target, const std::vector<std::size_t>& frames,
      DownloadReport& rep);

  /// The full-plane sweep once `checked` (sorted, unique) verified clean:
  /// reads back every other frame, one readback per gap between the runs
  /// of `checked`, and returns those differing from `target`.
  [[nodiscard]] std::vector<std::size_t> sweep(
      const TargetPlane& target, const std::vector<std::size_t>& checked,
      DownloadReport& rep);

  /// ABORT, then `words` in bursts of at most `burst_words` words: one
  /// attempt. A send fault is logged and ends the send; readback decides
  /// how much of the stream landed. An empty stream sends nothing and
  /// counts no attempt.
  void send(std::span<const std::uint32_t> words, std::size_t burst_words,
            int& attempts, DownloadReport& rep);
  /// send() of a whole stream as one burst.
  void send(const Bitstream& stream, int& attempts, DownloadReport& rep);

  /// Runs after the first send: verifies `check` (and, under full_sweep,
  /// the rest of the plane) against `target`, waits for DONE when
  /// `ensure_started`, and sends a targeted repair stream for what
  /// mismatched, until the plane converges or `attempts` reaches
  /// `max_attempts`. True on convergence.
  bool converge(const TargetPlane& target, std::vector<std::size_t> check,
                int max_attempts, bool ensure_started, int& attempts,
                DownloadReport& rep);

  /// The body of download_stream and download_validated: send, converge,
  /// then commit the table to the mirror or roll back.
  DownloadReport run_download(std::span<const std::uint32_t> words,
                              const FrameTable& table,
                              std::size_t burst_words);

  /// Rolls `touched` back to the mirror; appends the outcome to rep.error.
  void roll_back(std::vector<std::size_t> touched, DownloadReport& rep);

  /// Fills rep.telemetry from the per-download tallies accumulated by
  /// converge() (words sent, readback words, repair rounds, aborts).
  void finish_report(DownloadReport& rep, std::uint64_t t0_ns) const;

  Xhwif* board_;
  const Device* device_;
  DownloadPolicy policy_;
  std::unique_ptr<ConfigMemory> mirror_;

  // Readback-verification scratch (clear-don't-shrink): readback words land
  // here via readback_into and are compared in place against the target
  // plane's frames, so steady-state verification allocates nothing per run.
  std::vector<std::uint32_t> readback_scratch_;

  // Per-download tallies (reset at the top of download_full/run_download;
  // the downloader is single-threaded per instance, so plain integers do).
  mutable std::uint64_t words_sent_ = 0;
  mutable std::uint64_t readback_words_ = 0;
  mutable std::uint64_t repair_rounds_ = 0;
  mutable std::uint64_t aborts_ = 0;
};

}  // namespace jpg
