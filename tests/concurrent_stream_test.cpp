// Concurrent verified streamed downloads: several threads drive distinct
// FaultyBoards through their own VerifiedDownloaders simultaneously, all
// leasing pbits from ONE shared PartialBitstreamGenerator at once, and two
// boards swap the same leases at once from one shared FrameTable per
// lease. Run under the tsan label: this is the contended path the
// multi-tenant service stands on. After every swap the two-state invariant
// must hold per board: the plane is the verified target (Success) or the
// previous verified plane (RolledBack), never anything in between.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <thread>
#include <vector>

#include "bitstream/bitgen.h"
#include "bitstream/config_port.h"
#include "bitstream/frame_table.h"
#include "core/partial_gen.h"
#include "device/device.h"
#include "hwif/faulty_board.h"
#include "hwif/sim_board.h"
#include "hwif/verified_downloader.h"
#include "support/rng.h"

namespace jpg {
namespace {

ConfigMemory noise_plane(const Device& dev, std::uint64_t seed) {
  ConfigMemory m(dev);
  Rng rng(seed);
  for (std::size_t f = 0; f < m.num_frames(); ++f) {
    for (std::size_t w = 0; w < dev.frames().frame_words(); ++w) {
      m.frame(f).set_word(w, static_cast<std::uint32_t>(rng.next()));
    }
  }
  return m;
}

TEST(ConcurrentStreamTest, DistinctFaultyBoardsKeepTwoStateInvariant) {
  constexpr std::size_t kThreads = 4;
  constexpr int kSwapsPerThread = 6;
  const Device& dev = Device::get("XCV50");
  const ConfigMemory base = noise_plane(dev, 404);
  const Bitstream base_bit = generate_full_bitstream(base);
  PartialBitstreamGenerator gen(base);

  struct Lane {
    Region region;
    ConfigMemory mod_a;
    ConfigMemory mod_b;
    std::unique_ptr<SimBoard> inner;
    std::unique_ptr<FaultyBoard> board;
    std::unique_ptr<VerifiedDownloader> dl;
    std::vector<std::string> failures;  // reported from the thread
  };
  std::vector<Lane> lanes;
  lanes.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    // Disjoint full-height two-column bands: every lane's lease is a
    // distinct cache entry, so concurrent pinning never collides.
    const int c0 = static_cast<int>(2 * t);
    Lane lane{Region{0, c0, dev.rows() - 1, c0 + 1},
              noise_plane(dev, 1000 + t),
              noise_plane(dev, 2000 + t),
              std::make_unique<SimBoard>(dev),
              nullptr,
              nullptr,
              {}};
    lane.inner->send_config(base_bit.words);
    FaultProfile profile;
    profile.word_flip = 0.001;
    profile.readback_flip = 0.0005;
    profile.fault_budget = 6;  // transient: budget spent -> clean board
    lane.board =
        std::make_unique<FaultyBoard>(*lane.inner, profile, 7000 + t);
    DownloadPolicy policy;
    policy.full_sweep = false;
    lane.dl = std::make_unique<VerifiedDownloader>(*lane.board, dev, policy);
    lane.dl->assume_board_state(base);
    lanes.push_back(std::move(lane));
  }

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Lane& lane = lanes[t];
      // Both leases are taken once and reused: a (region, content) pair is
      // one pinned cache entry, and pinning it twice would throw.
      const PbitLease lease_a = gen.generate_leased(lane.mod_a, lane.region);
      const PbitLease lease_b = gen.generate_leased(lane.mod_b, lane.region);
      const ConfigMemory target_a = gen.compose(lane.mod_a, lane.region);
      const ConfigMemory target_b = gen.compose(lane.mod_b, lane.region);

      const ConfigMemory* verified = &base;
      for (int i = 0; i < kSwapsPerThread; ++i) {
        const bool use_a = (i % 2) == 0;
        const DownloadReport rep = lane.dl->download_stream(
            use_a ? lease_a.words() : lease_b.words(), 128);
        const ConfigMemory* want = verified;
        if (rep.status == DownloadStatus::Success) {
          want = use_a ? &target_a : &target_b;
        } else if (rep.status != DownloadStatus::RolledBack) {
          lane.failures.push_back("swap " + std::to_string(i) +
                                  " neither verified nor rolled back: " +
                                  rep.summary());
          break;
        }
        if (!(lane.inner->config() == *want)) {
          lane.failures.push_back(
              "swap " + std::to_string(i) +
              " plane does not match its verified state (" + rep.summary() +
              ")");
          break;
        }
        verified = want;
      }
    });
  }
  for (auto& th : threads) th.join();

  std::size_t faults_total = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (const std::string& f : lanes[t].failures) {
      ADD_FAILURE() << "lane " << t << ": " << f;
    }
    faults_total += lanes[t].board->faults_injected();
  }
  // The profile is tuned to actually exercise the repair path somewhere
  // across the run; a completely clean campaign proves nothing.
  EXPECT_GT(faults_total, 0u);
}

// The service's boards share a resident entry: its pinned words and the
// frame table its publish replay recorded. Two boards swap the same two
// leases concurrently through download_validated, reading one table per
// lease, each over its own faulty link.
TEST(ConcurrentLeaseTest, TwoBoardsSwapOneLeaseFromOneSharedTable) {
  constexpr std::size_t kBoards = 2;
  constexpr int kSwapsPerBoard = 8;
  const Device& dev = Device::get("XCV50");
  const ConfigMemory base = noise_plane(dev, 505);
  const Bitstream base_bit = generate_full_bitstream(base);
  const PartialBitstreamGenerator gen(base);
  const Region region{0, 2, dev.rows() - 1, 3};
  const std::array<ConfigMemory, 2> mods{noise_plane(dev, 3001),
                                         noise_plane(dev, 3002)};
  const std::array<PbitLease, 2> leases{gen.generate_leased(mods[0], region),
                                        gen.generate_leased(mods[1], region)};
  std::vector<FrameTable> tables;
  std::vector<ConfigMemory> targets;
  for (std::size_t k = 0; k < 2; ++k) {
    tables.push_back(validate_stream(dev, leases[k].words()));
    targets.push_back(gen.compose(mods[k], region));
  }

  struct Board {
    std::unique_ptr<SimBoard> inner;
    std::unique_ptr<FaultyBoard> link;
    std::unique_ptr<VerifiedDownloader> dl;
    std::vector<std::string> failures;  // reported from the thread
  };
  std::vector<Board> boards(kBoards);
  for (std::size_t b = 0; b < kBoards; ++b) {
    boards[b].inner = std::make_unique<SimBoard>(dev);
    boards[b].inner->send_config(base_bit.words);
    FaultProfile profile;
    profile.word_flip = 0.001;
    profile.readback_flip = 0.0005;
    profile.send_failure = 0.05;
    profile.fault_budget = 6;
    boards[b].link =
        std::make_unique<FaultyBoard>(*boards[b].inner, profile, 8100 + b);
    boards[b].dl = std::make_unique<VerifiedDownloader>(*boards[b].link, dev);
    boards[b].dl->assume_board_state(base);
  }

  std::vector<std::thread> threads;
  for (std::size_t b = 0; b < kBoards; ++b) {
    threads.emplace_back([&, b] {
      Board& board = boards[b];
      const ConfigMemory* verified = &base;
      for (int i = 0; i < kSwapsPerBoard; ++i) {
        // The boards start on different leases, then trade every swap.
        const std::size_t k = (b + static_cast<std::size_t>(i)) % 2;
        const DownloadReport rep =
            board.dl->download_validated(leases[k].words(), tables[k], 128);
        const ConfigMemory* want = verified;
        if (rep.status == DownloadStatus::Success) {
          want = &targets[k];
        } else if (rep.status != DownloadStatus::RolledBack) {
          board.failures.push_back("swap " + std::to_string(i) +
                                   " neither verified nor rolled back: " +
                                   rep.summary());
          break;
        }
        if (!(board.inner->config() == *want) ||
            !(board.dl->mirror() == *want)) {
          board.failures.push_back(
              "swap " + std::to_string(i) +
              " plane does not match its verified state (" + rep.summary() +
              ")");
          break;
        }
        verified = want;
      }
    });
  }
  for (auto& th : threads) th.join();

  std::size_t faults_total = 0;
  for (std::size_t b = 0; b < kBoards; ++b) {
    for (const std::string& f : boards[b].failures) {
      ADD_FAILURE() << "board " << b << ": " << f;
    }
    faults_total += boards[b].link->faults_injected();
  }
  EXPECT_GT(faults_total, 0u);
}

// validate_stream keeps no state: threads validating one lease at once (the
// service validates publishes without a lock) all get the frame table a
// port over a plane records for it.
TEST(ConcurrentStreamTest, ThreadsValidateOneLeaseAtOnce) {
  constexpr std::size_t kThreads = 4;
  constexpr int kRounds = 8;
  const Device& dev = Device::get("XCV50");
  const ConfigMemory base = noise_plane(dev, 606);
  const PartialBitstreamGenerator gen(base);
  const PbitLease lease = gen.generate_leased(
      noise_plane(dev, 4001), Region{0, 2, dev.rows() - 1, 4});
  ConfigMemory replayed = base;
  ConfigPort port(replayed);
  port.load(lease.words());
  port.finish();
  const FrameTable want = port.frame_table();
  ASSERT_FALSE(want.touched.empty());

  std::vector<std::vector<FrameTable>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        got[t].push_back(validate_stream(dev, lease.words()));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), static_cast<std::size_t>(kRounds));
    for (const FrameTable& table : got[t]) EXPECT_EQ(table, want) << t;
  }
}

}  // namespace
}  // namespace jpg
