#include "bitstream/config_port.h"

#include <algorithm>
#include <sstream>

#include "support/error.h"
#include "support/telemetry/telemetry.h"

namespace jpg {

ConfigPort::ConfigPort(ConfigMemory& mem) : mem_(&mem) {
  // One up-front reservation sized for the largest legitimate payload (a
  // whole-plane FDRI write plus its pad frame); every later clear() keeps
  // the capacity, so legitimate streams never reallocate on the hot path.
  const FrameMap& fm = mem.device().frames();
  fdri_buffer_.reserve((fm.num_frames() + 1) * fm.frame_words());
  reset();
}

void ConfigPort::reset() {
  synced_ = false;
  started_ = false;
  mode_ = Command::NONE;
  crc_.reset();
  expect_ = Expect::Header;
  cur_reg_ = ConfigReg::CRC;
  remaining_payload_ = 0;
  fdri_active_ = false;
  fdri_buffer_.clear();
  far_ = 0;
  cur_frame_ = 0;
  far_loaded_ = false;
  flr_ = 0;
  ctl_ = 0;
  mask_ = 0;
  cor_ = 0;
}

void ConfigPort::reset_stats() {
  words_consumed_ = 0;
  frames_committed_ = 0;
  committed_frame_log_.clear();
}

void ConfigPort::abort() {
  JPG_COUNT("port.aborts", 1);
  synced_ = false;
  mode_ = Command::NONE;
  expect_ = Expect::Header;
  remaining_payload_ = 0;
  fdri_active_ = false;
  fdri_buffer_.clear();
  // Addressing context must not leak into the next stream: a resynced
  // follow-up stream would otherwise decode type-2 continuation headers
  // against the failed stream's last register, and an FDRI write that
  // omits a fresh FAR would auto-increment from the failed stream's frame
  // cursor. (far_loaded_ alone is not enough — cur_reg_ is consulted
  // before any register write happens.)
  cur_reg_ = ConfigReg::CRC;
  far_ = 0;
  cur_frame_ = 0;
  far_loaded_ = false;
  crc_.reset();
}

void ConfigPort::load_word(std::uint32_t word) {
  try {
    load_word_impl(word);
  } catch (...) {
    // A protocol violation leaves the port in its error state: desynced
    // until the next sync word, exactly like the real part after a CRC
    // failure. Memory already written stays written, and a device that had
    // completed startup keeps operating.
    abort();
    throw;
  }
}

void ConfigPort::load(std::span<const std::uint32_t> words) {
  JPG_COUNT("port.words_loaded", words.size());
  constexpr auto kFdri = static_cast<std::uint32_t>(ConfigReg::FDRI);
  std::size_t i = 0;
  while (i < words.size()) {
    // Inside an FDRI payload every word but the last only feeds the CRC and
    // the frame buffer, and neither can throw: take that run in one step.
    if (expect_ == Expect::Payload && fdri_active_ && remaining_payload_ > 1) {
      const std::size_t run =
          std::min<std::size_t>(remaining_payload_ - 1, words.size() - i);
      const std::span<const std::uint32_t> payload = words.subspan(i, run);
      crc_.update_run(kFdri, payload);
      fdri_buffer_.insert(fdri_buffer_.end(), payload.begin(), payload.end());
      remaining_payload_ -= static_cast<std::uint32_t>(run);
      words_consumed_ += run;
      i += run;
      continue;
    }
    load_word(words[i++]);
  }
}

void ConfigPort::load_word_impl(std::uint32_t word) {
  ++words_consumed_;
  if (!synced_) {
    if (word == kSyncWord) {
      synced_ = true;
      expect_ = Expect::Header;
    }
    // Anything before sync (dummy padding) is ignored, as on the real part.
    return;
  }

  switch (expect_) {
    case Expect::Header: {
      if (word == kDummyWord) return;  // inter-packet padding
      const auto h = decode_header(word, cur_reg_);
      if (!h) {
        std::ostringstream os;
        os << "invalid packet header word 0x" << std::hex << word;
        throw BitstreamError(os.str());
      }
      if (h->op == PacketOp::Nop) return;
      if (h->op == PacketOp::Read) {
        throw BitstreamError(
            "read packets are not supported on the load path; use "
            "ConfigPort::readback_frames");
      }
      cur_reg_ = h->reg;
      if (h->type == 1 && h->reg == ConfigReg::FDRI && h->word_count == 0) {
        expect_ = Expect::Type2Header;
        return;
      }
      remaining_payload_ = h->word_count;
      if (remaining_payload_ == 0) return;  // zero-length write: no-op
      if (cur_reg_ == ConfigReg::FDRI) {
        fdri_active_ = true;
        begin_fdri_payload();
      }
      expect_ = Expect::Payload;
      return;
    }
    case Expect::Type2Header: {
      const auto h = decode_header(word, cur_reg_);
      if (!h || h->type != 2 || h->op != PacketOp::Write) {
        throw BitstreamError("expected type 2 write header after zero-count "
                             "FDRI type 1 header");
      }
      remaining_payload_ = h->word_count;
      if (remaining_payload_ == 0) {
        expect_ = Expect::Header;
        return;
      }
      fdri_active_ = true;
      begin_fdri_payload();
      expect_ = Expect::Payload;
      return;
    }
    case Expect::Payload: {
      JPG_ASSERT(remaining_payload_ > 0);
      --remaining_payload_;
      if (fdri_active_) {
        crc_.update(static_cast<std::uint32_t>(ConfigReg::FDRI), word);
        fdri_buffer_.push_back(word);
        if (remaining_payload_ == 0) {
          handle_fdri_payload_complete();
          fdri_active_ = false;
          expect_ = Expect::Header;
        }
        return;
      }
      handle_reg_write(cur_reg_, word);
      if (remaining_payload_ == 0) expect_ = Expect::Header;
      return;
    }
  }
}

void ConfigPort::begin_fdri_payload() {
  // clear-don't-shrink: the construction-time reservation covers every
  // legitimate payload. Only a malformed header announcing more words than
  // a whole plane can force growth, and that growth is counted — benches
  // and tests gate cfg.buffer_reallocs == 0 after warm-up.
  if (remaining_payload_ > fdri_buffer_.capacity()) {
    JPG_COUNT("cfg.buffer_reallocs", 1);
  }
  fdri_buffer_.clear();
  fdri_buffer_.reserve(remaining_payload_);
}

void ConfigPort::handle_reg_write(ConfigReg reg, std::uint32_t value) {
  if (reg == ConfigReg::CRC) {
    JPG_COUNT("port.crc_checks", 1);
    const std::uint16_t expected = crc_.value();
    if (static_cast<std::uint16_t>(value) != expected) {
      JPG_COUNT("port.crc_failures", 1);
      std::ostringstream os;
      os << "CRC mismatch: stream says 0x" << std::hex << value
         << ", accumulated 0x" << expected;
      throw BitstreamError(os.str());
    }
    crc_.reset();
    return;
  }
  crc_.update(static_cast<std::uint32_t>(reg), value);

  const FrameMap& fm = mem_->device().frames();
  switch (reg) {
    case ConfigReg::FAR: {
      if (!fm.far_valid(value)) {
        std::ostringstream os;
        os << "invalid FAR 0x" << std::hex << value;
        throw BitstreamError(os.str());
      }
      far_ = value;
      cur_frame_ = fm.frame_index_of(fm.decode_far(value));
      far_loaded_ = true;
      return;
    }
    case ConfigReg::CMD:
      handle_cmd(static_cast<Command>(value));
      return;
    case ConfigReg::FLR:
      if (value != fm.frame_words() - 1) {
        std::ostringstream os;
        os << "FLR mismatch: stream says " << value << ", device frame length "
           << fm.frame_words() << " words";
        throw BitstreamError(os.str());
      }
      flr_ = value;
      return;
    case ConfigReg::IDCODE:
      if (value != mem_->device().spec().idcode) {
        std::ostringstream os;
        os << "IDCODE mismatch: stream is for 0x" << std::hex << value
           << ", device is 0x" << mem_->device().spec().idcode;
        throw BitstreamError(os.str());
      }
      return;
    case ConfigReg::CTL: ctl_ = (ctl_ & ~mask_) | (value & mask_); return;
    case ConfigReg::MASK: mask_ = value; return;
    case ConfigReg::COR: cor_ = value; return;
    case ConfigReg::LOUT: return;  // legacy daisy-chain output: ignored
    case ConfigReg::STAT:
      throw BitstreamError("STAT register is read-only");
    case ConfigReg::FDRO:
      throw BitstreamError("FDRO register is read-only");
    case ConfigReg::CRC:
    case ConfigReg::FDRI:
      JPG_ASSERT(false);  // handled elsewhere
      return;
  }
}

void ConfigPort::handle_fdri_payload_complete() {
  if (mode_ != Command::WCFG) {
    throw BitstreamError("FDRI write without a preceding WCFG command");
  }
  if (!far_loaded_) {
    throw BitstreamError("FDRI write without a loaded FAR");
  }
  const FrameMap& fm = mem_->device().frames();
  const std::size_t fw = fm.frame_words();
  if (fdri_buffer_.size() % fw != 0) {
    std::ostringstream os;
    os << "FDRI payload of " << fdri_buffer_.size()
       << " words is not a whole number of " << fw << "-word frames";
    throw BitstreamError(os.str());
  }
  const std::size_t nframes = fdri_buffer_.size() / fw;
  if (nframes == 0) return;
  // The final frame of every FDRI packet is the pipeline-flush pad frame.
  const std::size_t commit = nframes - 1;
  JPG_COUNT("port.frames_committed", commit);
  for (std::size_t i = 0; i < commit; ++i) {
    if (cur_frame_ >= fm.num_frames()) {
      throw BitstreamError("FDRI write ran past the last frame");
    }
    mem_->write_frame_words(cur_frame_, fdri_buffer_.data() + i * fw);
    committed_frame_log_.push_back(cur_frame_);
    ++frames_committed_;
    cur_frame_ = fm.next_frame(cur_frame_);
  }
}

void ConfigPort::handle_cmd(Command cmd) {
  switch (cmd) {
    case Command::NONE:
      return;
    case Command::WCFG:
    case Command::RCFG:
      mode_ = cmd;
      return;
    case Command::LFRM:
      // End-of-write marker; the per-packet pad frame already flushed.
      mode_ = Command::NONE;
      return;
    case Command::START:
      started_ = true;
      return;
    case Command::RCRC:
      crc_.reset();
      return;
    case Command::AGHIGH:
    case Command::SWITCH:
      return;  // startup sequencing details we do not model
    case Command::DESYNC:
      synced_ = false;
      mode_ = Command::NONE;
      expect_ = Expect::Header;
      return;
  }
  throw BitstreamError("unknown CMD code");
}

std::vector<std::uint32_t> ConfigPort::readback_frames(std::size_t first,
                                                       std::size_t count) const {
  std::vector<std::uint32_t> out;
  readback_frames_into(first, count, out);
  return out;
}

void ConfigPort::readback_frames_into(std::size_t first, std::size_t count,
                                      std::vector<std::uint32_t>& out) const {
  const FrameMap& fm = mem_->device().frames();
  JPG_REQUIRE(first + count <= fm.num_frames(), "readback range out of bounds");
  const std::size_t fw = fm.frame_words();
  out.resize(count * fw);
  JPG_COUNT("port.readback_words", out.size());
  for (std::size_t i = 0; i < count; ++i) {
    mem_->read_frame_words(first + i, out.data() + i * fw);
  }
}

}  // namespace jpg
