#include "hwif/verified_downloader.h"

#include <algorithm>
#include <future>
#include <numeric>
#include <sstream>

#include "bitstream/bitstream_writer.h"
#include "bitstream/config_port.h"
#include "support/log.h"
#include "support/telemetry/telemetry.h"
#include "support/thread_pool.h"

namespace jpg {

namespace {

bool is_capture_frame(const FrameMap& fm, std::size_t frame) {
  const FrameAddress a = fm.address_of_index(frame);
  return a.block_type == 0 && (a.minor == 16 || a.minor == 17) &&
         fm.column_kind(static_cast<int>(a.major)) == ColumnKind::Clb;
}

/// Sorted, deduplicated linear indices of the frames `port` committed.
std::vector<std::size_t> touched_frames(const ConfigPort& port) {
  std::vector<std::size_t> frames(port.committed_frames().begin(),
                                  port.committed_frames().end());
  std::sort(frames.begin(), frames.end());
  frames.erase(std::unique(frames.begin(), frames.end()), frames.end());
  return frames;
}

}  // namespace

std::string_view download_status_name(DownloadStatus s) {
  switch (s) {
    case DownloadStatus::Success: return "success";
    case DownloadStatus::RolledBack: return "rolled-back";
    case DownloadStatus::Failed: return "failed";
  }
  return "?";
}

std::string DownloadReport::summary() const {
  std::ostringstream os;
  os << "verified download: " << download_status_name(status) << " after "
     << attempts << " attempt(s)";
  if (rollback_attempts > 0) {
    os << " + " << rollback_attempts << " rollback attempt(s)";
  }
  os << "; " << frames_touched << " frames touched, " << frames_verified
     << " verified, " << frames_repaired << " repaired, " << faults_seen
     << " faults seen";
  if (!error.empty()) os << "; " << error;
  return os.str();
}

void mask_capture_words_inplace(const Device& device, std::size_t frame,
                                std::span<std::uint32_t> words) {
  const FrameMap& fm = device.frames();
  if (!is_capture_frame(fm, frame)) return;
  JPG_ASSERT(words.size() == fm.frame_words());
  // Frame bits pack LSB-first (bit i lives in word i>>5 at position i&31),
  // so the two capture bits of each row window clear with plain word masks —
  // no BitVector round trip per compared frame.
  for (int r = 0; r < device.rows(); ++r) {
    const std::size_t base = fm.row_bit_base(r);
    words[base >> 5] &= ~(1u << (base & 31));
    words[(base + 1) >> 5] &= ~(1u << ((base + 1) & 31));
  }
}

std::vector<std::uint32_t> mask_capture_words(const Device& device,
                                              std::size_t frame,
                                              std::vector<std::uint32_t> words) {
  mask_capture_words_inplace(device, frame, words);
  return words;
}

std::string AttestReport::summary() const {
  std::ostringstream os;
  os << "attestation: " << (attested ? "clean" : "FAILED") << "; "
     << frames_audited << " frames audited, " << findings.size()
     << " stray finding(s), " << frames_unreadable << " unreadable";
  const std::size_t show = std::min<std::size_t>(findings.size(), 4);
  for (std::size_t i = 0; i < show; ++i) {
    const AttestFinding& f = findings[i];
    os << "; " << f.address << " word " << f.word << ": expected 0x"
       << std::hex << f.expected << " got 0x" << f.got << std::dec;
  }
  return os.str();
}

ConfigMemory reconstruct_expected_plane(const ConfigMemory& base,
                                        std::span<const Bitstream> applied) {
  ConfigMemory plane = base;
  for (const Bitstream& pbit : applied) {
    ConfigPort port(plane);
    port.load(pbit);
  }
  return plane;
}

VerifiedDownloader::VerifiedDownloader(Xhwif& board, const Device& device,
                                       const DownloadPolicy& policy)
    : board_(&board), device_(&device), policy_(policy) {
  JPG_REQUIRE(policy.max_attempts > 0, "max_attempts must be positive");
  JPG_REQUIRE(policy.rollback_max_attempts > 0,
              "rollback_max_attempts must be positive");
  const FrameMap& fm = device.frames();
  all_frames_.resize(fm.num_frames());
  std::iota(all_frames_.begin(), all_frames_.end(), 0);
  capture_frame_.resize(fm.num_frames());
  for (std::size_t f = 0; f < fm.num_frames(); ++f) {
    capture_frame_[f] = is_capture_frame(fm, f) ? 1 : 0;
  }
  // Every capture frame masks the same bit positions.
  capture_mask_.assign(fm.frame_words(), ~0u);
  const auto cap = std::find(capture_frame_.begin(), capture_frame_.end(), 1);
  if (cap != capture_frame_.end()) {
    mask_capture_words_inplace(
        device, static_cast<std::size_t>(cap - capture_frame_.begin()),
        capture_mask_);
  }
}

void VerifiedDownloader::assume_board_state(const ConfigMemory& plane) {
  JPG_REQUIRE(&plane.device() == device_,
              "mirror plane targets a different device");
  mirror_ = std::make_unique<ConfigMemory>(plane);
  reseed_shadow();
}

void VerifiedDownloader::reseed_shadow() {
  if (shadow_ == nullptr) {
    shadow_ = std::make_unique<ConfigMemory>(*mirror_);
    shadow_port_ = std::make_unique<ConfigPort>(*shadow_);
  } else {
    *shadow_ = *mirror_;
  }
}

void VerifiedDownloader::settle_shadow(bool success) {
  for (const std::size_t f : shadow_port_->committed_frames()) {
    if (success) {
      mirror_->copy_frame_from(*shadow_, f);
    } else {
      shadow_->copy_frame_from(*mirror_, f);
    }
  }
}

const ConfigMemory& VerifiedDownloader::mirror() const {
  JPG_REQUIRE(mirror_ != nullptr, "no board mirror established");
  return *mirror_;
}

Bitstream VerifiedDownloader::build_frames_stream(
    const ConfigMemory& target, const std::vector<std::size_t>& frames,
    bool ensure_started) const {
  const FrameMap& fm = device_->frames();
  BitstreamWriter w(*device_);
  w.begin();
  w.write_cmd(Command::RCRC);
  w.write_reg(ConfigReg::FLR, static_cast<std::uint32_t>(fm.frame_words() - 1));
  w.write_reg(ConfigReg::IDCODE, device_->spec().idcode);
  if (!frames.empty()) {
    w.write_cmd(Command::WCFG);
    std::size_t i = 0;
    while (i < frames.size()) {
      std::size_t j = i + 1;
      while (j < frames.size() && frames[j] == frames[j - 1] + 1) ++j;
      w.write_reg(ConfigReg::FAR, fm.encode_far(fm.address_of_index(frames[i])));
      w.write_frames(target, frames[i], j - i);
      i = j;
    }
    w.write_crc();
    w.write_cmd(Command::LFRM);
  }
  if (ensure_started) {
    w.write_cmd(Command::START);
    w.write_crc();
  }
  return w.finish();
}

std::size_t VerifiedDownloader::first_mismatch(
    std::size_t frame, std::span<const std::uint32_t> got,
    std::span<const std::uint32_t> want) const {
  if (!policy_.mask_capture_bits || capture_frame_[frame] == 0) {
    // std::equal is the fast path (a memcmp); locate the word only on a miss.
    if (std::equal(got.begin(), got.end(), want.begin())) return got.size();
    return static_cast<std::size_t>(
        std::mismatch(got.begin(), got.end(), want.begin()).first -
        got.begin());
  }
  for (std::size_t w = 0; w < got.size(); ++w) {
    if (((got[w] ^ want[w]) & capture_mask_[w]) != 0) return w;
  }
  return got.size();
}

std::vector<std::size_t> VerifiedDownloader::verify_against(
    const ConfigMemory& target, const std::vector<std::size_t>& frames,
    DownloadReport& rep) {
  const std::size_t fw = device_->frames().frame_words();
  std::vector<std::size_t> bad;
  std::vector<std::uint32_t>& got = readback_scratch_;
  std::size_t i = 0;
  while (i < frames.size()) {
    std::size_t j = i + 1;
    while (j < frames.size() && frames[j] == frames[j - 1] + 1) ++j;
    const std::size_t first = frames[i];
    const std::size_t count = j - i;
    try {
      board_->readback_into(first, count, got);
      readback_words_ += got.size();
      JPG_COUNT("dl.readback_words", got.size());
    } catch (const JpgError& e) {
      // A failed readback proves nothing about the run; treat every frame
      // in it as suspect so the retry rewrites and re-verifies them.
      ++rep.faults_seen;
      rep.fault_log.push_back(std::string("readback: ") + e.what());
      bad.insert(bad.end(),
                 frames.begin() + static_cast<std::ptrdiff_t>(i),
                 frames.begin() + static_cast<std::ptrdiff_t>(j));
      i = j;
      continue;
    }
    JPG_ASSERT(got.size() == count * fw);
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t frame = first + k;
      ++rep.frames_verified;
      const std::span<const std::uint32_t> rb(got.data() + k * fw, fw);
      if (first_mismatch(frame, rb, target.frame(frame).words()) != fw) {
        bad.push_back(frame);
      }
    }
    i = j;
  }
  return bad;
}

void VerifiedDownloader::backoff(int attempt) {
  if (policy_.backoff_cycles <= 0) return;
  const int shift = std::clamp(attempt - 2, 0, 16);
  board_->step_clock(policy_.backoff_cycles << shift);
}

bool VerifiedDownloader::converge(Bitstream stream, const ConfigMemory& target,
                                  std::vector<std::size_t> check, int budget,
                                  bool ensure_started, int& attempts,
                                  DownloadReport& rep) {
  for (int attempt = 1; attempt <= budget; ++attempt) {
    // Backoff follows the download's running attempt count, so a repair
    // after a streamed send backs off like any other retry.
    ++attempts;
    if (attempts > 1) backoff(attempts);
    try {
      // ABORT first: a previous stream cut off mid-payload left the port
      // waiting for FDRI words that would otherwise swallow this stream.
      board_->abort_config();
      ++aborts_;
      board_->send_config(stream.words);
      words_sent_ += stream.words.size();
      JPG_COUNT("dl.words_sent", stream.words.size());
    } catch (const JpgError& e) {
      ++rep.faults_seen;
      rep.fault_log.push_back(std::string("send: ") + e.what());
      // Fall through: readback decides how much of the stream landed.
    }
    std::vector<std::size_t> bad = verify_against(target, check, rep);
    if (bad.empty() && policy_.full_sweep) {
      bad = verify_against(target, all_frames_, rep);
    }
    if (bad.empty()) {
      if (ensure_started && !board_->config_done()) {
        // Every frame is right but DONE is low: the stream lost its START
        // command (e.g. truncated after the last pad frame). Resend just
        // the startup epilogue.
        rep.fault_log.emplace_back(
            "frames verified but DONE low; resending startup");
        stream = build_frames_stream(target, {}, true);
        check.clear();
        continue;
      }
      return true;
    }
    rep.frames_repaired += bad.size();
    ++repair_rounds_;
    JPG_COUNT("dl.repair_rounds", 1);
    stream = build_frames_stream(target, bad, ensure_started);
    check = std::move(bad);
  }
  return false;
}

void VerifiedDownloader::finish_report(DownloadReport& rep,
                                       std::uint64_t t0_ns) const {
  rep.telemetry.duration_ns = telemetry::now_ns() - t0_ns;
  rep.telemetry.set("words_sent", words_sent_);
  rep.telemetry.set("readback_words", readback_words_);
  rep.telemetry.set("repair_rounds", repair_rounds_);
  rep.telemetry.set("aborts", aborts_);
}

AttestReport VerifiedDownloader::attest(const ConfigMemory& expected) {
  JPG_SPAN("attest.audit");
  JPG_COUNT("attest.audits", 1);
  JPG_REQUIRE(&expected.device() == device_,
              "attestation plane targets a different device");
  const FrameMap& fm = device_->frames();
  const std::size_t fw = fm.frame_words();
  const std::size_t total = fm.num_frames();
  // Bounded readback runs keep the scratch buffer small on big parts.
  constexpr std::size_t kChunkFrames = 32;

  AttestReport rep;
  std::vector<std::uint32_t>& got = readback_scratch_;
  for (std::size_t first = 0; first < total; first += kChunkFrames) {
    const std::size_t count = std::min(kChunkFrames, total - first);
    try {
      board_->readback_into(first, count, got);
      JPG_COUNT("attest.readback_words", got.size());
    } catch (const JpgError& e) {
      // An unreadable frame proves nothing — but an audit that cannot see
      // the whole plane must not attest it.
      rep.frames_unreadable += count;
      JPG_WARN(std::string("attest: readback failed: ") + e.what());
      continue;
    }
    JPG_ASSERT(got.size() == count * fw);
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t frame = first + k;
      ++rep.frames_audited;
      const std::span<const std::uint32_t> rb(got.data() + k * fw, fw);
      const std::vector<std::uint32_t>& want = expected.frame(frame).words();
      // One finding per frame (the address is what matters), reporting the
      // words as compared: capture bits masked on both sides.
      const std::size_t w = first_mismatch(frame, rb, want);
      if (w != fw) {
        const std::uint32_t m =
            policy_.mask_capture_bits && capture_frame_[frame] != 0
                ? capture_mask_[w]
                : ~0u;
        rep.findings.push_back(
            {frame, fm.describe_frame(frame), w, want[w] & m, rb[w] & m});
      }
    }
  }
  rep.attested = rep.findings.empty() && rep.frames_unreadable == 0;
  JPG_COUNT("attest.frames_audited", rep.frames_audited);
  if (!rep.findings.empty()) {
    JPG_COUNT("attest.findings", rep.findings.size());
  }
  JPG_INFO(rep.summary());
  return rep;
}

AttestReport VerifiedDownloader::attest() {
  JPG_REQUIRE(has_mirror(),
              "no board mirror established; call download_full or "
              "assume_board_state first");
  return attest(*mirror_);
}

DownloadReport VerifiedDownloader::download_full(const Bitstream& full) {
  JPG_SPAN("dl.download_full");
  JPG_COUNT("dl.downloads", 1);
  const std::uint64_t telem_t0 = telemetry::now_ns();
  words_sent_ = readback_words_ = repair_rounds_ = aborts_ = 0;
  DownloadReport rep;
  auto plane = std::make_unique<ConfigMemory>(*device_);
  std::vector<std::size_t> touched;
  try {
    ConfigPort port(*plane);
    port.load(full);
    if (!port.started()) {
      throw BitstreamError("full bitstream does not start the device");
    }
    touched = touched_frames(port);
  } catch (const JpgError& e) {
    rep.error = std::string("stream rejected tool-side, nothing sent: ") +
                e.what();
    finish_report(rep, telem_t0);
    return rep;
  }
  rep.frames_touched = touched.size();
  if (converge(full, *plane, std::move(touched), policy_.max_attempts,
               /*ensure_started=*/true, rep.attempts, rep)) {
    rep.status = DownloadStatus::Success;
    mirror_ = std::move(plane);
    reseed_shadow();
  } else {
    rep.error = "full download did not converge within the attempt budget";
  }
  finish_report(rep, telem_t0);
  JPG_INFO(rep.summary());
  return rep;
}

DownloadReport VerifiedDownloader::download_partial(const Bitstream& partial) {
  JPG_SPAN("dl.download_partial");
  // One burst covering the whole stream: it replays completely before a
  // word is sent, so a malformed stream is rejected with nothing sent.
  StreamOptions opts;
  opts.burst_words = std::max<std::size_t>(1, partial.words.size());
  return download_stream(StreamSource::of(partial.words), opts);
}

DownloadReport VerifiedDownloader::download_stream(const StreamSource& source,
                                                   const StreamOptions& opts) {
  JPG_SPAN("dl.download_stream");
  JPG_COUNT("dl.downloads", 1);
  const std::uint64_t telem_t0 = telemetry::now_ns();
  words_sent_ = readback_words_ = repair_rounds_ = aborts_ = 0;
  JPG_REQUIRE(has_mirror(),
              "no board mirror established; call download_full or "
              "assume_board_state first");
  JPG_REQUIRE(opts.burst_words > 0, "burst_words must be positive");
  DownloadReport rep;
  shadow_port_->reset();
  shadow_port_->reset_stats();
  try {
    stream_into_shadow(source, opts, rep);
  } catch (...) {
    settle_shadow(false);
    throw;
  }
  settle_shadow(rep.ok());
  finish_report(rep, telem_t0);
  JPG_INFO(rep.summary());
  return rep;
}

void VerifiedDownloader::stream_into_shadow(const StreamSource& source,
                                            const StreamOptions& opts,
                                            DownloadReport& rep) {
  ConfigPort& port = *shadow_port_;  // one burst ahead of the wire
  BurstCursor validate(source);
  BurstCursor send(source);

  // Burst 0 replays before a single word goes out: a stream malformed at
  // the head is rejected with nothing sent.
  {
    const std::span<const std::uint32_t> head = validate.next(opts.burst_words);
    if (!head.empty()) {
      try {
        port.load(head);
      } catch (const JpgError& e) {
        rep.error = std::string("stream rejected tool-side, nothing sent: ") +
                    e.what();
        return;
      }
      // ABORT first, as in converge(): a previous stream cut off
      // mid-payload must not swallow this one. The streamed send is one
      // attempt against the policy budget.
      board_->abort_config();
      ++aborts_;
      ++rep.attempts;
    }
  }

  bool send_failed = false;
  bool mid_stream_reject = false;
  std::uint64_t overlap_ns = 0;
  while (true) {
    const std::span<const std::uint32_t> burst = send.next(opts.burst_words);
    if (burst.empty()) break;
    // Burst k's replay already succeeded; launch burst k+1's replay so it
    // runs while burst k is on the wire. The validate cursor stays exactly
    // one burst ahead of the send cursor — the two-state invariant holds
    // burst-wise: nothing unvalidated is ever sent.
    const std::span<const std::uint32_t> ahead = validate.next(opts.burst_words);
    std::future<void> ahead_done;
    // The replay task reads the caller's words and writes the shadow plane:
    // wait for it on every way out of this iteration, an exception from
    // send_config included.
    struct JoinOnExit {
      std::future<void>& f;
      ~JoinOnExit() {
        if (f.valid()) f.wait();
      }
    } join_ahead{ahead_done};
    if (!ahead.empty() && opts.overlap_verify) {
      ahead_done =
          ThreadPool::global().submit([&port, ahead] { port.load(ahead); });
    }
    const std::uint64_t send_t0 = telemetry::now_ns();
    bool sent_clean = false;
    if (!send_failed) {
      try {
        JPG_HIST("cfg.burst_words", burst.size());
        board_->send_config(burst);
        words_sent_ += burst.size();
        JPG_COUNT("dl.words_sent", burst.size());
        sent_clean = true;
      } catch (const JpgError& e) {
        ++rep.faults_seen;
        rep.fault_log.push_back(std::string("send: ") + e.what());
        // Stop pushing words after a link fault, but let the replay finish:
        // readback verification needs the complete intended plane.
        send_failed = true;
      }
    }
    const std::uint64_t send_t1 = telemetry::now_ns();
    try {
      if (ahead_done.valid()) {
        ahead_done.get();
        // The replay was in flight across the whole send window (submitted
        // before it, joined after): credit the send duration as validation
        // time hidden behind the transfer — but only when the burst really
        // went out. After a send fault the window measures a skipped no-op
        // (or the throw itself), and crediting those near-zero windows
        // would skew cfg.stream_overlap_ns toward nothing.
        if (sent_clean) overlap_ns += send_t1 - send_t0;
      } else if (!ahead.empty()) {
        port.load(ahead);
      }
    } catch (const JpgError& e) {
      rep.error =
          std::string("stream rejected tool-side mid-stream: ") + e.what();
      mid_stream_reject = true;
      break;
    }
  }
  JPG_COUNT("cfg.stream_overlap_ns", overlap_ns);
  rep.telemetry.set("stream_overlap_ns", overlap_ns);

  // The replay port logged every frame it committed — a superset of what
  // the board can have committed (the wire saw a validated prefix).
  std::vector<std::size_t> touched = touched_frames(port);
  rep.frames_touched = touched.size();

  if (mid_stream_reject) {
    // Bursts already on the wire, but the stream's tail is malformed: there
    // is no intended plane to converge to. Abandon the update and roll the
    // committed superset back to the mirror.
    roll_back(std::move(touched), rep);
    return;
  }

  // Fully replayed: the shadow is the intended plane. Verify the touched
  // frames (plus the sweep), then repair with the remaining attempt budget.
  const ConfigMemory& target = *shadow_;
  std::vector<std::size_t> bad = verify_against(target, touched, rep);
  if (bad.empty() && policy_.full_sweep) {
    bad = verify_against(target, all_frames_, rep);
  }
  bool converged = bad.empty();
  if (!converged) {
    rep.frames_repaired += bad.size();
    ++repair_rounds_;
    JPG_COUNT("dl.repair_rounds", 1);
    Bitstream repair = build_frames_stream(target, bad, false);
    converged = converge(std::move(repair), target, std::move(bad),
                         policy_.max_attempts - rep.attempts,
                         /*ensure_started=*/false, rep.attempts, rep);
  }
  if (converged) {
    rep.status = DownloadStatus::Success;
    return;
  }
  rep.error = "update did not converge";
  roll_back(std::move(touched), rep);
}

void VerifiedDownloader::roll_back(std::vector<std::size_t> touched,
                                   DownloadReport& rep) {
  if (!policy_.rollback) {
    rep.error += "; rollback disabled; board state unknown";
    return;
  }
  Bitstream rb = build_frames_stream(*mirror_, touched, false);
  if (converge(std::move(rb), *mirror_, std::move(touched),
               policy_.rollback_max_attempts, /*ensure_started=*/false,
               rep.rollback_attempts, rep)) {
    rep.status = DownloadStatus::RolledBack;
    rep.error += "; device rolled back to the pre-update plane";
  } else {
    rep.error += "; rollback did not converge; board state unknown";
  }
}

}  // namespace jpg
