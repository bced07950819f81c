// VerifiedDownloader: fault-tolerant configuration over any XHWIF board.
//
// The paper's end-to-end claim is that a generated partial bitstream can be
// written onto a live device; the fire-and-forget send_config path trusts
// the link and the stream completely. This wrapper makes the download
// *verified*: every stream is validated tool-side before a single word goes
// out (framing + CRC replayed against a mirror of the board's plane), the
// send is followed by a readback of exactly the frames the replay
// committed, compared word-for-word against the intended contents (plus,
// under full_sweep, the whole plane), and mismatched frames are rewritten
// by targeted repair streams under a bounded retry budget. When the budget
// is spent the downloader rolls the touched frames back to the pre-update
// plane, so the device is always in one of exactly two states: the update
// applied and verified, or the previous configuration — never half-written.
//
// The downloader keeps a tool-side mirror (the last plane it verified onto
// the board); repair and rollback streams are generated from it, which is
// what makes recovery possible without re-reading the whole device.
//
// Next to the mirror it keeps a persistent shadow plane, with its own
// ConfigPort, that equals the mirror between downloads. A partial download
// replays into the shadow, which then holds the intended plane, and the
// port's committed-frame log names exactly the frames where the two
// differ. On Success those frames are copied shadow -> mirror; on every
// other exit (rejected at the head or mid-stream, rolled back, failed, or
// an exception) they are copied mirror -> shadow. Either way the pair is
// equal again, and a swap copies only the frames it rewrites, never the
// whole plane.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bitstream/config_memory.h"
#include "bitstream/config_port.h"
#include "bitstream/packet.h"
#include "hwif/stream_source.h"
#include "hwif/xhwif.h"
#include "support/telemetry/telemetry.h"

namespace jpg {

struct DownloadPolicy {
  /// Send attempts per download (the initial send plus targeted repairs).
  int max_attempts = 4;
  /// Send attempts for the rollback stream after the update is given up on.
  int rollback_max_attempts = 4;
  /// User-clock cycles stepped between attempts, doubling each retry
  /// (link-level backoff; 0 disables clocking entirely).
  int backoff_cycles = 0;
  /// After the touched frames verify, read back the whole plane too: a
  /// corrupted-but-valid FAR can land frames outside the touched set, and
  /// only a sweep catches those strays.
  bool full_sweep = true;
  /// Roll the touched frames back to the mirror when the update fails.
  bool rollback = true;
  /// Zero FF capture bits before comparing (the readback-mask discipline);
  /// live state captured into the plane is not a configuration mismatch.
  bool mask_capture_bits = true;
};

enum class DownloadStatus {
  Success,     ///< update applied; readback matches the intended plane
  RolledBack,  ///< update abandoned; readback matches the pre-update plane
  Failed,      ///< neither converged within its budget (board state unknown)
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
  std::string error;  ///< why the download failed (Failed only)
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

/// Replays `applied` partial bitstreams, in order, onto a copy of `base`:
/// the plane a healthy device must hold after those downloads. Relocated
/// pbits compose like any other — the expectation is wherever they were
/// actually targeted. Throws BitstreamError on a malformed pbit.
[[nodiscard]] ConfigMemory reconstruct_expected_plane(
    const ConfigMemory& base, std::span<const Bitstream> applied);

/// Zeroes the FF capture bits of one frame's readback words when `frame`
/// is a capture minor (CLB minors 16/17) — the readback-mask-file rule.
[[nodiscard]] std::vector<std::uint32_t> mask_capture_words(
    const Device& device, std::size_t frame, std::vector<std::uint32_t> words);

/// In-place form of the same, for callers comparing through reusable
/// scratch buffers (no per-frame vector round trip). `words` must be one
/// frame's worth.
void mask_capture_words_inplace(const Device& device, std::size_t frame,
                                std::span<std::uint32_t> words);

class VerifiedDownloader {
 public:
  /// `board` and `device` must outlive the downloader.
  VerifiedDownloader(Xhwif& board, const Device& device,
                     const DownloadPolicy& policy = {});

  /// Downloads a complete bitstream, establishing the mirror. Success
  /// additionally requires the DONE pin — every frame can be correct while
  /// a truncated stream dropped the START command.
  DownloadReport download_full(const Bitstream& full);

  /// Downloads a partial bitstream against the established mirror: a
  /// download_stream with one burst covering the whole stream. The stream
  /// is first replayed into the shadow plane (tool-side framing and CRC
  /// check — nothing is sent if it is malformed), then sent,
  /// readback-verified, repaired, and on persistent failure rolled back.
  DownloadReport download_partial(const Bitstream& partial);

  /// Streaming (ICAP-style) partial download: the scatter-gather source is
  /// sent in bounded bursts straight from the caller's segments — no
  /// concatenated staging copy — while the tool-side mirror replay runs one
  /// burst *ahead* of the wire (on a pool thread when
  /// `opts.overlap_verify`), so validation cost hides behind transfer time.
  /// The two-state invariant is preserved burst-wise: burst k goes out only
  /// after bursts 0..k replayed cleanly; a burst rejected before anything
  /// was sent reports the usual "nothing sent" error, one rejected
  /// mid-stream aborts the wire and rolls the frames committed so far back
  /// to the mirror. After the last burst the touched frames (and, under
  /// full_sweep, the whole plane) are readback-verified and repaired.
  DownloadReport download_stream(const StreamSource& source,
                                 const StreamOptions& opts = {});

  /// Full-plane readback audit: reads back every frame of the device and
  /// compares it word-for-word against `expected`, masking FF capture bits
  /// per policy. Unlike the per-download verification (which checks the
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
      const ConfigMemory& target, const std::vector<std::size_t>& frames,
      bool ensure_started) const;

  /// Index of the first word where readback `got` of `frame` differs from
  /// `want`, or got.size() if none does. Capture bits of a capture frame
  /// are ignored under mask_capture_bits.
  [[nodiscard]] std::size_t first_mismatch(
      std::size_t frame, std::span<const std::uint32_t> got,
      std::span<const std::uint32_t> want) const;

  /// Reads back `frames` (sorted) and returns those differing from
  /// `target`. A failed readback marks its whole run mismatched.
  [[nodiscard]] std::vector<std::size_t> verify_against(
      const ConfigMemory& target, const std::vector<std::size_t>& frames,
      DownloadReport& rep);

  /// Drives the board until `check` (and, under full_sweep, the whole
  /// plane) reads back identical to `target`: abort, send, verify, then
  /// repair mismatches with targeted streams. True on convergence.
  bool converge(Bitstream stream, const ConfigMemory& target,
                std::vector<std::size_t> check, int budget,
                bool ensure_started, int& attempts, DownloadReport& rep);

  /// Replays `source` into the shadow plane one burst ahead of the wire,
  /// then verifies, repairs or rolls back; fills `rep`.
  void stream_into_shadow(const StreamSource& source, const StreamOptions& opts,
                          DownloadReport& rep);

  /// Rolls `touched` back to the mirror; appends the outcome to rep.error.
  void roll_back(std::vector<std::size_t> touched, DownloadReport& rep);

  /// Makes the shadow plane a copy of a newly established mirror.
  void reseed_shadow();

  /// Applies the shadow rule to the frames the shadow port committed:
  /// shadow -> mirror on success, mirror -> shadow otherwise.
  void settle_shadow(bool success);

  void backoff(int attempt);

  /// Fills rep.telemetry from the per-download tallies accumulated by
  /// converge() (words sent, readback words, repair rounds, aborts).
  void finish_report(DownloadReport& rep, std::uint64_t t0_ns) const;

  Xhwif* board_;
  const Device* device_;
  DownloadPolicy policy_;
  std::unique_ptr<ConfigMemory> mirror_;
  /// Equal to *mirror_ between downloads (see the header comment).
  std::unique_ptr<ConfigMemory> shadow_;
  std::unique_ptr<ConfigPort> shadow_port_;
  /// Every linear frame index in order: the full-plane sweep's frame list.
  std::vector<std::size_t> all_frames_;
  /// capture_frame_[f] != 0 iff frame f is a CLB capture minor.
  std::vector<char> capture_frame_;
  /// One frame of words with the FF capture bits cleared, the rest set.
  std::vector<std::uint32_t> capture_mask_;

  // Readback-verification scratch (clear-don't-shrink): readback words land
  // here via readback_into and are compared in place against the target
  // plane's frames, so steady-state verification allocates nothing per run.
  std::vector<std::uint32_t> readback_scratch_;

  // Per-download tallies (reset at the top of download_full/download_stream;
  // the downloader is single-threaded per instance, so plain integers do).
  mutable std::uint64_t words_sent_ = 0;
  mutable std::uint64_t readback_words_ = 0;
  mutable std::uint64_t repair_rounds_ = 0;
  mutable std::uint64_t aborts_ = 0;
};

}  // namespace jpg
