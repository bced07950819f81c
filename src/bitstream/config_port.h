// ConfigPort: the device-side configuration state machine.
//
// Consumes a bitstream word by word — exactly what the SelectMAP/JTAG logic
// of the real part does — and commits frames into a ConfigMemory. Having a
// real consumer (rather than a privileged "apply" path) is what lets the test
// suite prove that JPG's partial bitstreams are *loadable*: correct sync,
// packet framing, FAR addressing, pad-frame discipline and CRC.
//
// Modelling notes (documented deviations from the real part):
//  * Each FDRI write packet must carry a whole number of frames and ends
//    with one pad frame that flushes the internal pipeline and is discarded;
//    the pipeline does not persist across packets.
//  * Readback is exposed as a direct method rather than through FDRO read
//    packets; it returns exact frame contents with no leading pad frame.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bitstream/config_memory.h"
#include "bitstream/crc16.h"
#include "bitstream/packet.h"
#include "support/telemetry/telemetry.h"

namespace jpg {

class ConfigPort {
 public:
  explicit ConfigPort(ConfigMemory& mem);

  /// Full power-on reset: desync, clear all state (not the memory).
  void reset();

  /// SelectMAP-style ABORT: drops the packet processor to the desynced
  /// error state — mid-packet decode state, buffered FDRI data, the running
  /// CRC and all addressing context (FAR, current frame, last register) are
  /// discarded; committed frames and startup status survive. This is the
  /// recovery handle a downloader uses before retrying after a corrupted or
  /// truncated stream left the port mid-payload; the same drop happens
  /// automatically when load_word throws.
  void abort();

  /// Clocks one word into the port. Throws BitstreamError on protocol
  /// violations (bad header, CRC mismatch, wrong IDCODE, invalid FAR, ...).
  /// After an error the port drops to the desynced error state (like the
  /// real part after a CRC failure) until the next sync word arrives;
  /// frames committed before the error stay committed.
  void load_word(std::uint32_t word);

  /// Clocks a run of words in. Equivalent to load_word on each word in
  /// turn — same plane, committed-frame log, words_consumed() and the same
  /// exception at the same word — but FDRI payload runs are ingested in
  /// bulk: CRC over the run, then one append to the frame buffer. The last
  /// payload word of a packet still goes through load_word, so frames
  /// commit (and errors are thrown) exactly where they would word by word.
  void load(std::span<const std::uint32_t> words);
  void load(const Bitstream& bs) { load(bs.words); }

  // --- State ------------------------------------------------------------------
  [[nodiscard]] bool synced() const { return synced_; }
  /// True once a START command has been processed (device configured).
  [[nodiscard]] bool started() const { return started_; }

  // --- Statistics (benches, dynamic-safety tests) -----------------------------
  [[nodiscard]] std::uint64_t words_consumed() const { return words_consumed_; }
  [[nodiscard]] std::size_t frames_committed() const { return frames_committed_; }
  /// Linear indices of every frame committed since the last reset_stats()
  /// or clear_committed_frames(), in commit order (duplicates possible).
  [[nodiscard]] const std::vector<std::size_t>& committed_frames() const {
    return committed_frame_log_;
  }
  /// Empties the committed-frame log only (a long-lived consumer folds it
  /// and clears it so it does not grow with every stream).
  void clear_committed_frames() { committed_frame_log_.clear(); }
  void reset_stats();

  // --- Readback ---------------------------------------------------------------
  /// Reads `count` frames starting at linear frame index `first`.
  [[nodiscard]] std::vector<std::uint32_t> readback_frames(
      std::size_t first, std::size_t count) const;

  /// Same, into a caller-owned buffer (resized to count * frame_words).
  /// The allocation-free readback path: a verifier that reads back frames
  /// in a loop reuses one scratch vector instead of allocating per call.
  void readback_frames_into(std::size_t first, std::size_t count,
                            std::vector<std::uint32_t>& out) const;

 private:
  void load_word_impl(std::uint32_t word);
  void begin_fdri_payload();
  void handle_reg_write(ConfigReg reg, std::uint32_t value);
  void handle_fdri_payload_complete();
  void handle_cmd(Command cmd);

  ConfigMemory* mem_;

  // Protocol state.
  bool synced_ = false;
  bool started_ = false;
  Command mode_ = Command::NONE;  ///< WCFG / RCFG / NONE
  Crc16 crc_;

  // Packet decode state.
  enum class Expect { Header, Type2Header, Payload };
  Expect expect_ = Expect::Header;
  ConfigReg cur_reg_ = ConfigReg::CRC;
  std::uint32_t remaining_payload_ = 0;
  bool fdri_active_ = false;
  /// Reserved once at construction for a full-plane payload (every frame
  /// plus the pad frame) and cleared — never shrunk — between packets, so
  /// the download hot path performs no per-stream allocation after warm-up
  /// (the cfg.buffer_reallocs counter proves it stays at 0).
  std::vector<std::uint32_t> fdri_buffer_;

  // Registers.
  std::uint32_t far_ = 0;
  std::size_t cur_frame_ = 0;
  bool far_loaded_ = false;
  std::uint32_t flr_ = 0;
  std::uint32_t ctl_ = 0;
  std::uint32_t mask_ = 0;
  std::uint32_t cor_ = 0;

  // Stats.
  std::uint64_t words_consumed_ = 0;
  std::size_t frames_committed_ = 0;
  std::vector<std::size_t> committed_frame_log_;
};

}  // namespace jpg
