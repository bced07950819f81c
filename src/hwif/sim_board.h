// SimBoard: the simulated FPGA board behind the Xhwif interface.
//
// Owns a device's configuration memory, a ConfigPort, and a bitstream-level
// functional simulator that is rebuilt lazily whenever configuration
// changes. The board implements *dynamic* reconfiguration semantics:
// configuration loads may be interleaved with user clocking, and across a
// rebuild the flip-flops of untouched columns keep their state (their frames
// were never written), while flip-flops in rewritten columns come up at
// their configured INIT value.
//
// (Deviation note: on real Virtex silicon FFs in partially rewritten columns
// keep their pre-load state unless GSR is pulsed; we model the
// designer-intended "module starts fresh" behaviour instead and document it
// here — every test that exercises module swaps relies on INIT startup.)
#pragma once

#include <memory>
#include <optional>
#include <set>

#include "bitstream/config_port.h"
#include "hwif/xhwif.h"
#include "sim/bitstream_sim.h"

namespace jpg {

class SimBoard final : public Xhwif {
 public:
  explicit SimBoard(const Device& device);

  [[nodiscard]] std::string board_name() const override;

  void send_config(std::span<const std::uint32_t> words) override;
  void abort_config() override;
  [[nodiscard]] bool config_done() override { return port_.started(); }
  [[nodiscard]] std::vector<std::uint32_t> readback(
      std::size_t first, std::size_t nframes) override;
  void readback_into(std::size_t first, std::size_t nframes,
                     std::vector<std::uint32_t>& out) override;
  void capture_state() override;
  void step_clock(int cycles) override;
  void set_pin(int pad, bool value) override;
  [[nodiscard]] bool get_pin(int pad) override;

  // --- Simulation-side inspection ------------------------------------------
  [[nodiscard]] const Device& device() const { return *device_; }
  [[nodiscard]] const ConfigMemory& config() const { return memory_; }
  [[nodiscard]] bool configured() const { return port_.started(); }

  /// Total configuration words ever clocked in (download-time metric).
  [[nodiscard]] std::uint64_t config_words() const {
    return port_.words_consumed();
  }
  /// Total user-clock cycles stepped.
  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }
  /// Number of simulator rebuilds (== configuration sessions observed).
  [[nodiscard]] int rebuilds() const { return rebuilds_; }
  /// The port's committed-frame log. send_config folds it into the set of
  /// stale CLB columns and clears it, so between calls it stays empty
  /// instead of growing with every stream the board has seen.
  [[nodiscard]] const std::vector<std::size_t>& committed_frames() const {
    return port_.committed_frames();
  }

  /// The live circuit simulator (forces a rebuild if stale).
  [[nodiscard]] BitstreamSim& sim();

  /// Test hook: XORs `mask` into word `word` of frame `frame`, bypassing
  /// the configuration port entirely — the model of a stray modification
  /// (bitstream Trojan, SEU) that no download-time check saw. Readback and
  /// the simulator observe the corruption; attestation must flag it.
  void corrupt_frame_word(std::size_t frame, std::size_t word,
                          std::uint32_t mask);

 private:
  void rebuild_if_stale();
  /// Moves the port's newly committed frames into stale_cols_ / stale_.
  void fold_committed_frames();

  const Device* device_;
  ConfigMemory memory_;
  ConfigPort port_;
  std::unique_ptr<BitstreamSim> sim_;
  /// Configuration changed since the last rebuild.
  bool stale_ = false;
  /// CLB columns rewritten since the last rebuild: their FFs restart at
  /// INIT across it.
  std::set<int> stale_cols_;
  /// CLB column of each linear frame index, or -1 outside CLB columns.
  std::vector<int> clb_col_of_frame_;
  std::map<std::string, bool> pin_state_;
  std::uint64_t cycles_ = 0;
  int rebuilds_ = 0;
};

}  // namespace jpg
