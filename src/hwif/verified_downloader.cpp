#include "hwif/verified_downloader.h"

#include <algorithm>
#include <sstream>

#include "bitstream/bitstream_writer.h"
#include "bitstream/frame_table.h"
#include "support/log.h"
#include "support/telemetry/telemetry.h"

namespace jpg {

namespace {

/// Calls f(first, count) for each maximal run of consecutive frames in
/// `frames` (sorted, unique), in order.
template <typename F>
void for_each_run(const std::vector<std::size_t>& frames, F&& f) {
  std::size_t i = 0;
  while (i < frames.size()) {
    std::size_t j = i + 1;
    while (j < frames.size() && frames[j] == frames[j - 1] + 1) ++j;
    f(frames[i], j - i);
    i = j;
  }
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
  if (!fm.is_capture_frame(frame)) return;
  JPG_ASSERT(words.size() == fm.frame_words());
  const std::span<const std::uint32_t> mask = fm.capture_mask();
  for (std::size_t w = 0; w < words.size(); ++w) words[w] &= mask[w];
}

DownloadReport rejected_download(const JpgError& why) {
  DownloadReport rep;
  rep.error =
      std::string("stream rejected tool-side, nothing sent: ") + why.what();
  return rep;
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
    apply_frame_table(validate_stream(base.device(), pbit.words), pbit.words,
                      plane);
  }
  return plane;
}

VerifiedDownloader::VerifiedDownloader(Xhwif& board, const Device& device,
                                       const DownloadPolicy& policy)
    : board_(&board), device_(&device), policy_(policy) {
  JPG_REQUIRE(policy.max_attempts > 0, "max_attempts must be positive");
  JPG_REQUIRE(policy.rollback_max_attempts > 0,
              "rollback_max_attempts must be positive");
}

void VerifiedDownloader::assume_board_state(const ConfigMemory& plane) {
  JPG_REQUIRE(&plane.device() == device_,
              "mirror plane targets a different device");
  mirror_ = std::make_unique<ConfigMemory>(plane);
}

const ConfigMemory& VerifiedDownloader::mirror() const {
  JPG_REQUIRE(mirror_ != nullptr, "no board mirror established");
  return *mirror_;
}

Bitstream VerifiedDownloader::build_frames_stream(
    const TargetPlane& target, const std::vector<std::size_t>& frames,
    bool ensure_started) const {
  const FrameMap& fm = device_->frames();
  BitstreamWriter w(*device_);
  w.begin();
  w.write_cmd(Command::RCRC);
  w.write_reg(ConfigReg::FLR, static_cast<std::uint32_t>(fm.frame_words() - 1));
  w.write_reg(ConfigReg::IDCODE, device_->spec().idcode);
  if (!frames.empty()) {
    w.write_cmd(Command::WCFG);
    for_each_run(frames, [&](std::size_t first, std::size_t count) {
      w.write_reg(ConfigReg::FAR, fm.encode_far(fm.address_of_index(first)));
      w.write_frames(target, first, count);
    });
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
  const FrameMap& fm = device_->frames();
  if (!fm.is_capture_frame(frame)) {
    return static_cast<std::size_t>(
        std::mismatch(got.begin(), got.end(), want.begin()).first -
        got.begin());
  }
  const std::span<const std::uint32_t> mask = fm.capture_mask();
  for (std::size_t w = 0; w < got.size(); ++w) {
    if (((got[w] ^ want[w]) & mask[w]) != 0) return w;
  }
  return got.size();
}

template <typename OnMismatch>
void VerifiedDownloader::compare_run(const TargetPlane& target,
                                     std::size_t first, std::size_t count,
                                     OnMismatch&& on_mismatch) {
  const std::size_t fw = device_->frames().frame_words();
  std::vector<std::uint32_t>& got = readback_scratch_;
  board_->readback_into(first, count, got);
  JPG_ASSERT(got.size() == count * fw);
  const std::uint32_t* rb = got.data();
  for (std::size_t f = first; f < first + count;) {
    // One memcmp per stretch of the view; a stretch that differs somewhere
    // is located frame by frame, capture bits masked.
    const std::span<const std::uint32_t> want =
        target.frame_run(f, first + count - f);
    if (!std::equal(want.begin(), want.end(), rb)) {
      for (std::size_t k = 0; k < want.size(); k += fw) {
        const std::span<const std::uint32_t> got_k(rb + k, fw);
        const std::span<const std::uint32_t> want_k = want.subspan(k, fw);
        const std::size_t w = first_mismatch(f + k / fw, got_k, want_k);
        if (w != fw) on_mismatch(f + k / fw, w, got_k, want_k);
      }
    }
    rb += want.size();
    f += want.size() / fw;
  }
}

void VerifiedDownloader::verify_run(const TargetPlane& target,
                                    std::size_t first, std::size_t count,
                                    std::vector<std::size_t>& bad,
                                    DownloadReport& rep) {
  const std::size_t fw = device_->frames().frame_words();
  try {
    compare_run(target, first, count,
                [&bad](std::size_t frame, std::size_t,
                       std::span<const std::uint32_t>,
                       std::span<const std::uint32_t>) {
                  bad.push_back(frame);
                });
    readback_words_ += count * fw;
    JPG_COUNT("dl.readback_words", count * fw);
    rep.frames_verified += count;
  } catch (const JpgError& e) {
    // A failed readback proves nothing about the run; treat every frame
    // in it as suspect so the retry rewrites and re-verifies them.
    ++rep.faults_seen;
    rep.fault_log.push_back(std::string("readback: ") + e.what());
    for (std::size_t k = 0; k < count; ++k) bad.push_back(first + k);
  }
}

std::vector<std::size_t> VerifiedDownloader::verify_against(
    const TargetPlane& target, const std::vector<std::size_t>& frames,
    DownloadReport& rep) {
  std::vector<std::size_t> bad;
  for_each_run(frames, [&](std::size_t first, std::size_t count) {
    verify_run(target, first, count, bad, rep);
  });
  return bad;
}

std::vector<std::size_t> VerifiedDownloader::sweep(
    const TargetPlane& target, const std::vector<std::size_t>& checked,
    DownloadReport& rep) {
  std::vector<std::size_t> bad;
  std::size_t next = 0;  // first frame not yet swept or checked
  const auto gap_to = [&](std::size_t end) {
    if (end > next) verify_run(target, next, end - next, bad, rep);
  };
  for_each_run(checked, [&](std::size_t first, std::size_t count) {
    gap_to(first);
    next = first + count;
  });
  gap_to(device_->frames().num_frames());
  return bad;
}

std::vector<std::size_t> VerifiedDownloader::mismatched_frames(
    const TargetPlane& target, const std::vector<std::size_t>& frames) {
  JPG_REQUIRE(&target.device() == device_,
              "readback target plane targets a different device");
  DownloadReport scratch;
  return verify_against(target, frames, scratch);
}

void VerifiedDownloader::send(std::span<const std::uint32_t> words,
                              std::size_t burst_words, int& attempts,
                              DownloadReport& rep) {
  if (words.empty()) return;
  ++attempts;
  try {
    // ABORT first: a previous stream cut off mid-payload left the port
    // waiting for FDRI words that would otherwise swallow this stream.
    board_->abort_config();
    ++aborts_;
    for (std::size_t off = 0; off < words.size(); off += burst_words) {
      const auto burst =
          words.subspan(off, std::min(burst_words, words.size() - off));
      JPG_HIST("cfg.burst_words", burst.size());
      board_->send_config(burst);
      words_sent_ += burst.size();
      JPG_COUNT("dl.words_sent", burst.size());
    }
  } catch (const JpgError& e) {
    ++rep.faults_seen;
    rep.fault_log.push_back(std::string("send: ") + e.what());
    // Stop sending: readback decides how much of the stream landed.
  }
}

void VerifiedDownloader::send(const Bitstream& stream, int& attempts,
                              DownloadReport& rep) {
  send(stream.words, std::max<std::size_t>(1, stream.words.size()), attempts,
       rep);
}

bool VerifiedDownloader::converge(const TargetPlane& target,
                                  std::vector<std::size_t> check,
                                  int max_attempts, bool ensure_started,
                                  int& attempts, DownloadReport& rep) {
  for (;;) {
    std::vector<std::size_t> bad = verify_against(target, check, rep);
    if (bad.empty() && policy_.full_sweep) {
      bad = sweep(target, check, rep);
    }
    if (bad.empty()) {
      if (!ensure_started || board_->config_done()) return true;
      // Every frame is right but DONE is low: the stream lost its START
      // command (e.g. truncated after the last pad frame). The next stream
      // is just the startup epilogue.
      rep.fault_log.emplace_back(
          "frames verified but DONE low; resending startup");
    } else {
      rep.frames_repaired += bad.size();
      ++repair_rounds_;
      JPG_COUNT("dl.repair_rounds", 1);
    }
    if (attempts >= max_attempts) return false;
    send(build_frames_stream(target, bad, ensure_started), attempts, rep);
    check = std::move(bad);
  }
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
  const std::size_t total = fm.num_frames();
  // Bounded readback runs keep the scratch buffer small on big parts.
  constexpr std::size_t kChunkFrames = 32;

  AttestReport rep;
  const TargetPlane target(expected);
  for (std::size_t first = 0; first < total; first += kChunkFrames) {
    const std::size_t count = std::min(kChunkFrames, total - first);
    try {
      // One finding per frame (the address is what matters), reporting the
      // words as compared: capture bits masked on both sides.
      compare_run(target, first, count,
                  [&](std::size_t frame, std::size_t w,
                      std::span<const std::uint32_t> rb,
                      std::span<const std::uint32_t> want) {
                    const std::uint32_t m = fm.is_capture_frame(frame)
                                                ? fm.capture_mask()[w]
                                                : ~0u;
                    rep.findings.push_back({frame, fm.describe_frame(frame),
                                            w, want[w] & m, rb[w] & m});
                  });
      JPG_COUNT("attest.readback_words", count * fm.frame_words());
      rep.frames_audited += count;
    } catch (const JpgError& e) {
      // An unreadable frame proves nothing — but an audit that cannot see
      // the whole plane must not attest it.
      rep.frames_unreadable += count;
      JPG_WARN(std::string("attest: readback failed: ") + e.what());
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
  FrameTable table;
  try {
    table = validate_stream(*device_, full.words);
    if (!table.started) {
      throw BitstreamError("full bitstream does not start the device");
    }
  } catch (const JpgError& e) {
    rep = rejected_download(e);
    finish_report(rep, telem_t0);
    return rep;
  }
  auto plane = std::make_unique<ConfigMemory>(*device_);
  apply_frame_table(table, full.words, *plane);
  rep.frames_touched = table.touched.size();
  send(full, rep.attempts, rep);
  if (converge(TargetPlane(*plane), std::move(table.touched),
               policy_.max_attempts, /*ensure_started=*/true, rep.attempts,
               rep)) {
    rep.status = DownloadStatus::Success;
    mirror_ = std::move(plane);
  } else {
    rep.error = "full download did not converge within the attempt budget";
  }
  finish_report(rep, telem_t0);
  JPG_INFO(rep.summary());
  return rep;
}

DownloadReport VerifiedDownloader::download_partial(const Bitstream& partial) {
  JPG_SPAN("dl.download_partial");
  return download_stream(partial.words,
                         std::max<std::size_t>(1, partial.words.size()));
}

DownloadReport VerifiedDownloader::download_stream(
    std::span<const std::uint32_t> words, std::size_t burst_words) {
  JPG_SPAN("dl.download_stream");
  FrameTable table;
  try {
    // Validate the whole stream before any traffic: a stream malformed
    // anywhere, or cut off inside a packet, never reaches the board.
    table = validate_stream(*device_, words);
  } catch (const JpgError& e) {
    JPG_COUNT("dl.downloads", 1);
    DownloadReport rep = rejected_download(e);
    JPG_INFO(rep.summary());
    return rep;
  }
  return run_download(words, table, burst_words);
}

DownloadReport VerifiedDownloader::download_validated(
    std::span<const std::uint32_t> words, const FrameTable& table,
    std::size_t burst_words) {
  JPG_SPAN("dl.download_validated");
  JPG_COUNT("dl.table_applies", 1);
  return run_download(words, table, burst_words);
}

DownloadReport VerifiedDownloader::run_download(
    std::span<const std::uint32_t> words, const FrameTable& table,
    std::size_t burst_words) {
  JPG_COUNT("dl.downloads", 1);
  const std::uint64_t telem_t0 = telemetry::now_ns();
  words_sent_ = readback_words_ = repair_rounds_ = aborts_ = 0;
  JPG_REQUIRE(has_mirror(),
              "no board mirror established; call download_full or "
              "assume_board_state first");
  JPG_REQUIRE(burst_words > 0, "burst_words must be positive");
  // The intended plane: the stream's frames over the mirror.
  const TargetPlane target(*mirror_, table, words);
  DownloadReport rep;
  rep.frames_touched = table.touched.size();
  send(words, burst_words, rep.attempts, rep);
  if (converge(target, table.touched, policy_.max_attempts,
               /*ensure_started=*/false, rep.attempts, rep)) {
    rep.status = DownloadStatus::Success;
    apply_frame_table(table, words, *mirror_);
  } else {
    rep.error = "update did not converge";
    roll_back(table.touched, rep);
  }
  finish_report(rep, telem_t0);
  JPG_INFO(rep.summary());
  return rep;
}

void VerifiedDownloader::roll_back(std::vector<std::size_t> touched,
                                   DownloadReport& rep) {
  const TargetPlane previous(*mirror_);
  send(build_frames_stream(previous, touched, false), rep.rollback_attempts,
       rep);
  if (converge(previous, std::move(touched), policy_.rollback_max_attempts,
               /*ensure_started=*/false, rep.rollback_attempts, rep)) {
    rep.status = DownloadStatus::RolledBack;
    rep.error += "; device rolled back to the pre-update plane";
  } else {
    rep.error += "; rollback did not converge; board state unknown";
  }
}

}  // namespace jpg
