#include "hwif/sim_board.h"

#include <utility>

#include "cbits/cbits.h"

#include "support/log.h"

namespace jpg {

SimBoard::SimBoard(const Device& device)
    : device_(&device), memory_(device), port_(memory_) {
  const FrameMap& fm = device.frames();
  clb_col_of_frame_.assign(fm.num_frames(), -1);
  for (std::size_t f = 0; f < fm.num_frames(); ++f) {
    const FrameAddress a = fm.address_of_index(f);
    if (a.block_type == 0 &&
        fm.column_kind(static_cast<int>(a.major)) == ColumnKind::Clb) {
      clb_col_of_frame_[f] = fm.clb_col_of_major(static_cast<int>(a.major));
    }
  }
}

std::string SimBoard::board_name() const {
  return "simboard-" + device_->spec().name;
}

void SimBoard::send_config(std::span<const std::uint32_t> words) {
  try {
    port_.load(words);
  } catch (...) {
    // Frames committed before the error stay committed.
    fold_committed_frames();
    throw;
  }
  fold_committed_frames();
}

void SimBoard::fold_committed_frames() {
  const auto& log = port_.committed_frames();
  if (log.empty()) return;
  int last = -1;
  for (const std::size_t f : log) {
    const int col = clb_col_of_frame_[f];
    if (col >= 0 && col != last) stale_cols_.insert(col);
    last = col;
  }
  stale_ = true;
  port_.clear_committed_frames();
}

void SimBoard::abort_config() { port_.abort(); }

std::vector<std::uint32_t> SimBoard::readback(std::size_t first,
                                              std::size_t nframes) {
  return port_.readback_frames(first, nframes);
}

void SimBoard::readback_into(std::size_t first, std::size_t nframes,
                             std::vector<std::uint32_t>& out) {
  port_.readback_frames_into(first, nframes, out);
}

void SimBoard::capture_state() {
  rebuild_if_stale();
  CBits cb(memory_);
  for (const ExtractedFf& ff : sim_->circuit().ffs) {
    cb.set_captured_ff(ff.site, ff.le, sim_->sim().ff_state(ff.cell));
  }
  // Capture bits land in the configuration plane (that is how readback can
  // see them), so the decoded circuit cache is unaffected: the extractor
  // never reads capture bits.
}

void SimBoard::rebuild_if_stale() {
  if (sim_ != nullptr && !stale_) return;

  // Columns whose frames were (re)written since the last rebuild: their FFs
  // restart at INIT; all other FFs carry their state across.
  const std::set<int> touched_cols = std::exchange(stale_cols_, {});
  stale_ = false;

  std::map<BitstreamSim::FfKey, bool> carried;
  if (sim_ != nullptr) {
    for (auto& [key, value] : sim_->capture_ff_state()) {
      if (touched_cols.count(std::get<1>(key)) == 0) {
        carried.emplace(key, value);
      }
    }
  }
  sim_ = std::make_unique<BitstreamSim>(memory_);
  sim_->restore_ff_state(carried);
  ++rebuilds_;
  // Re-assert externally driven pins; pins the new circuit no longer has
  // simply stop being driven.
  for (const auto& [pin, value] : pin_state_) {
    for (const auto& port : sim_->circuit().netlist.input_ports()) {
      if (port == pin) {
        sim_->sim().set_input(pin, value);
        break;
      }
    }
  }
  JPG_DEBUG("simboard rebuild #" << rebuilds_ << ": "
                                 << sim_->circuit().netlist.num_cells()
                                 << " cells, " << carried.size()
                                 << " FF states carried");
}

BitstreamSim& SimBoard::sim() {
  rebuild_if_stale();
  return *sim_;
}

void SimBoard::step_clock(int cycles) {
  rebuild_if_stale();
  sim_->step_n(cycles);
  cycles_ += static_cast<std::uint64_t>(cycles);
}

void SimBoard::set_pin(int pad, bool value) {
  rebuild_if_stale();
  pin_state_["P" + std::to_string(pad)] = value;
  // Driving a pad the current configuration does not use is legal on a real
  // board (the value just isn't observed); remember it for future circuits.
  if (sim_->has_input_pad(pad)) {
    sim_->set_pad(pad, value);
  }
}

bool SimBoard::get_pin(int pad) {
  rebuild_if_stale();
  return sim_->get_pad(pad);
}

void SimBoard::corrupt_frame_word(std::size_t frame, std::size_t word,
                                  std::uint32_t mask) {
  const FrameMap& fm = device_->frames();
  JPG_REQUIRE(frame < fm.num_frames(), "corrupt_frame_word: frame out of range");
  JPG_REQUIRE(word < fm.frame_words(), "corrupt_frame_word: word out of range");
  BitSpan bits = memory_.frame(frame);
  bits.set_word(word, bits.word(word) ^ mask);
  // The plane changed behind the port's back: drop the cached circuit so
  // the simulator (like readback) sees the corrupted configuration.
  sim_.reset();
}

}  // namespace jpg
