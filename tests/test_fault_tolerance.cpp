// Fault-tolerance tests: CRC-framed durable checkpoints, in-place
// recovery of supervised workers, wedge detection, bounded backpressure,
// and the deterministic fault-injection harness that drives them.  This
// binary carries the ctest label `tsan` (see tests/CMakeLists.txt): build
// with -DSHE_SANITIZE=thread and run `ctest -L tsan` to exercise the
// worker/sampler/producer interplay under ThreadSanitizer.
#include "common/checkpoint.hpp"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <span>
#include <sstream>
#include <thread>
#include <typeinfo>

#include "common/crc32.hpp"
#include "common/wal.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/ingest_pipeline.hpp"
#include "she/sharded.hpp"
#include "she/she.hpp"
#include "stream/trace.hpp"
#include <gtest/gtest.h>

namespace she::runtime {
namespace {

std::uint64_t corrupt_count() {
  return obs::default_registry()
      .counter("she_checkpoint_corrupt_total",
               "checkpoint frames rejected as truncated or corrupted")
      .value();
}

std::string temp_dir(const char* name) {
  auto dir = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// -------------------------------- CRC-32 -----------------------------------

TEST(Crc32, KnownVectorsAndChaining) {
  const char check[] = "123456789";
  EXPECT_EQ(crc32(check, 9), 0xCBF43926u);  // the classic CRC-32/IEEE check
  EXPECT_EQ(crc32(check, 0), 0u);
  // Chaining through the seed equals one pass over the concatenation.
  EXPECT_EQ(crc32(check + 4, 5, crc32(check, 4)), crc32(check, 9));
}

// ------------------------------ frame format --------------------------------

std::vector<char> sample_payload() {
  std::vector<char> p;
  for (int i = 0; i < 200; ++i) p.push_back(static_cast<char>(i * 7));
  return p;
}

TEST(Checkpoint, FrameRoundTrip) {
  const auto payload = sample_payload();
  const auto frame = frame_checkpoint(
      987654321, std::span<const char>(payload.data(), payload.size()));
  ASSERT_EQ(frame.size(), kCheckpointHeaderBytes + payload.size());
  const CheckpointData back = parse_checkpoint(frame.data(), frame.size());
  EXPECT_EQ(back.stream_offset, 987654321u);
  EXPECT_EQ(back.payload, payload);
}

TEST(Checkpoint, EmptyPayloadRoundTrips) {
  const auto frame = frame_checkpoint(7, std::span<const char>());
  const CheckpointData back = parse_checkpoint(frame.data(), frame.size());
  EXPECT_EQ(back.stream_offset, 7u);
  EXPECT_TRUE(back.payload.empty());
}

TEST(Checkpoint, ProducerOffsetVectorRoundTripsAsVersion2) {
  const auto payload = sample_payload();
  const std::uint64_t offsets[] = {100, 0, 23456789};
  const auto frame = frame_checkpoint(
      100 + 0 + 23456789, std::span<const std::uint64_t>(offsets),
      std::span<const char>(payload.data(), payload.size()));
  ASSERT_EQ(frame.size(),
            kCheckpointHeaderBytes + 4 + 3 * 8 + payload.size());
  const CheckpointData back = parse_checkpoint(frame.data(), frame.size());
  EXPECT_EQ(back.stream_offset, 100u + 23456789u);
  ASSERT_EQ(back.producer_offsets.size(), 3u);
  EXPECT_EQ(back.producer_offsets[0], 100u);
  EXPECT_EQ(back.producer_offsets[1], 0u);
  EXPECT_EQ(back.producer_offsets[2], 23456789u);
  EXPECT_EQ(back.payload, payload);

  // A bit flip inside the producer vector fails the CRC like any other.
  auto bad = frame;
  bad[kCheckpointHeaderBytes + 9] ^= 0x4;
  EXPECT_THROW((void)parse_checkpoint(bad.data(), bad.size()),
               CheckpointError);

  // An empty vector degrades to a version-1 frame: older readers (and
  // fixtures) see byte-identical output from the two-argument writer.
  const auto v1 = frame_checkpoint(
      7, std::span<const std::uint64_t>(),
      std::span<const char>(payload.data(), payload.size()));
  EXPECT_EQ(v1, frame_checkpoint(
                    7, std::span<const char>(payload.data(), payload.size())));
  EXPECT_TRUE(parse_checkpoint(v1.data(), v1.size()).producer_offsets.empty());
}

TEST(Checkpoint, RejectsBitFlipAnywhere) {
  const auto payload = sample_payload();
  const auto frame = frame_checkpoint(
      42, std::span<const char>(payload.data(), payload.size()));
  // One flipped bit in every region of the frame: magic, version, stream
  // offset, payload length, CRC field, payload head/middle/tail.  All must
  // be rejected with the typed error and counted as corrupt.
  const std::size_t positions[] = {0,  5,  9,  17, 25,
                                   kCheckpointHeaderBytes,
                                   kCheckpointHeaderBytes + payload.size() / 2,
                                   frame.size() - 1};
  for (std::size_t pos : positions) {
    auto bad = frame;
    bad[pos] = static_cast<char>(static_cast<unsigned char>(bad[pos]) ^ 0x10);
    const std::uint64_t before = corrupt_count();
    EXPECT_THROW((void)parse_checkpoint(bad.data(), bad.size()),
                 CheckpointError)
        << "flip at byte " << pos;
    EXPECT_EQ(corrupt_count(), before + 1) << "flip at byte " << pos;
  }
}

TEST(Checkpoint, RejectsTruncationAtEveryLength) {
  const auto payload = sample_payload();
  const auto frame = frame_checkpoint(
      42, std::span<const char>(payload.data(), payload.size()));
  for (std::size_t n = 0; n < frame.size(); n += 13) {
    const std::uint64_t before = corrupt_count();
    EXPECT_THROW((void)parse_checkpoint(frame.data(), n), CheckpointError)
        << "prefix of " << n << " bytes";
    EXPECT_EQ(corrupt_count(), before + 1);
  }
  // Trailing garbage is as invalid as truncation.
  auto padded = frame;
  padded.push_back('x');
  EXPECT_THROW((void)parse_checkpoint(padded.data(), padded.size()),
               CheckpointError);
}

TEST(Checkpoint, FileWriteReadAndMissingFileSemantics) {
  const std::string dir = temp_dir("ckpt_file_rt");
  const std::string path = dir + "/a.ckpt";
  const auto payload = sample_payload();
  const auto frame = frame_checkpoint(
      1234, std::span<const char>(payload.data(), payload.size()));

  // Missing file: try_* says "fresh start", read_* throws — and neither
  // counts as corruption.
  const std::uint64_t before = corrupt_count();
  EXPECT_FALSE(try_read_checkpoint_file(path).has_value());
  EXPECT_THROW((void)read_checkpoint_file(path), CheckpointError);
  EXPECT_EQ(corrupt_count(), before);

  write_file_atomic(path, std::span<const char>(frame.data(), frame.size()));
  const CheckpointData back = read_checkpoint_file(path);
  EXPECT_EQ(back.stream_offset, 1234u);
  EXPECT_EQ(back.payload, payload);
  // No temp file left behind.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove_all(dir);
}

// ---------------------------- frame retention -------------------------------

/// Write one valid frame whose payload is the single byte `tag` at
/// generation `gen` of `path`.
void write_generation(const std::string& path, std::size_t gen, char tag,
                      std::uint64_t offset) {
  const char payload[] = {tag};
  const auto frame = frame_checkpoint(offset, std::span<const char>(payload, 1));
  write_file_atomic(checkpoint_generation_path(path, gen),
                    std::span<const char>(frame.data(), frame.size()));
}

TEST(CheckpointRetention, GenerationPaths) {
  EXPECT_EQ(checkpoint_generation_path("/d/s.ckpt", 0), "/d/s.ckpt");
  EXPECT_EQ(checkpoint_generation_path("/d/s.ckpt", 1), "/d/s.ckpt.1");
  EXPECT_EQ(checkpoint_generation_path("/d/s.ckpt", 3), "/d/s.ckpt.3");
}

TEST(CheckpointRetention, RotateShiftsAndDropsOldest) {
  const std::string dir = temp_dir("ckpt_rotate");
  const std::string path = dir + "/s.ckpt";

  // keep=3: after writing newest frames A, B, C in that order with a
  // rotation before each, the files are C, B.1, A.2.
  for (int i = 0; i < 3; ++i) {
    rotate_checkpoints(path, 3);
    write_generation(path, 0, static_cast<char>('A' + i), 100u + i);
  }
  EXPECT_EQ(read_checkpoint_file(path).payload[0], 'C');
  EXPECT_EQ(read_checkpoint_file(path + ".1").payload[0], 'B');
  EXPECT_EQ(read_checkpoint_file(path + ".2").payload[0], 'A');

  // One more round: A falls off the end.
  rotate_checkpoints(path, 3);
  write_generation(path, 0, 'D', 103);
  EXPECT_EQ(read_checkpoint_file(path).payload[0], 'D');
  EXPECT_EQ(read_checkpoint_file(path + ".2").payload[0], 'B');
  EXPECT_FALSE(std::filesystem::exists(path + ".3"));

  // keep<=1 is overwrite-in-place: rotation moves nothing.
  rotate_checkpoints(path, 1);
  EXPECT_EQ(read_checkpoint_file(path).payload[0], 'D');
  std::filesystem::remove_all(dir);
}

TEST(CheckpointRetention, RotateToleratesGaps) {
  const std::string dir = temp_dir("ckpt_rotate_gaps");
  const std::string path = dir + "/s.ckpt";
  // Only generation 1 exists; rotating must shift it without inventing
  // files or failing on the missing newest.
  write_generation(path, 1, 'X', 7);
  rotate_checkpoints(path, 3);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".1"));
  EXPECT_EQ(read_checkpoint_file(path + ".2").payload[0], 'X');
  std::filesystem::remove_all(dir);
}

TEST(CheckpointRetention, ReadNewestFallsBackPastCorruptFrames) {
  const std::string dir = temp_dir("ckpt_fallback");
  const std::string path = dir + "/s.ckpt";

  // Nothing on disk at all: a fresh start, not an error.
  EXPECT_FALSE(read_newest_checkpoint(path, 3).has_value());

  write_generation(path, 0, 'N', 30);
  write_generation(path, 1, 'M', 20);
  write_generation(path, 2, 'O', 10);
  auto got = read_newest_checkpoint(path, 3);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload[0], 'N');
  EXPECT_EQ(got->stream_offset, 30u);

  // Corrupt the newest: the reader counts the rejection and falls back to
  // generation 1.
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "garbage";
  }
  const std::uint64_t before = corrupt_count();
  got = read_newest_checkpoint(path, 3);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload[0], 'M');
  EXPECT_EQ(got->stream_offset, 20u);
  EXPECT_GT(corrupt_count(), before);

  // All generations corrupt: throwing beats silently resuming from
  // nothing when frames were demonstrably written.
  for (std::size_t gen = 1; gen < 3; ++gen) {
    std::ofstream f(checkpoint_generation_path(path, gen),
                    std::ios::binary | std::ios::trunc);
    f << "garbage";
  }
  EXPECT_THROW((void)read_newest_checkpoint(path, 3), CheckpointError);

  // A frame outside the retention window is invisible to the reader.
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");
  std::filesystem::remove(path + ".2");
  write_generation(path, 2, 'Z', 5);
  EXPECT_FALSE(read_newest_checkpoint(path, 2).has_value());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointRetention, PipelineKeepsGenerationsAndResumesAfterCorruption) {
  const std::string dir = temp_dir("ckpt_pipeline_keep");
  std::vector<std::uint64_t> trace(40000);
  for (std::size_t i = 0; i < trace.size(); ++i) trace[i] = i % 512;

  PipelineOptions opt;
  opt.shards = 1;
  opt.producers = 1;
  opt.checkpoint_dir = dir;
  opt.checkpoint_interval = 4096;  // many checkpoints over 40k items
  opt.checkpoint_keep = 3;
  const auto cm_factory = [](std::size_t) {
    SheConfig cfg;
    cfg.window = 1u << 12;
    cfg.cells = 1 << 14;
    cfg.group_cells = 64;
    cfg.alpha = 3.0;
    return SheCountMin(cfg, 4);
  };
  std::uint64_t expect_freq = 0;
  {
    IngestPipeline<SheCountMin> pipe(opt, cm_factory);
    pipe.start();
    ASSERT_EQ(pipe.push_bulk(0, trace), trace.size());
    pipe.close();
    expect_freq = pipe.snapshot(0).frequency(42);
  }
  const std::string base = dir + "/shard-0.ckpt";
  EXPECT_TRUE(std::filesystem::exists(base));
  EXPECT_TRUE(std::filesystem::exists(base + ".1"));
  EXPECT_TRUE(std::filesystem::exists(base + ".2"));
  // Generations are strictly ordered by stream offset, newest first.
  const std::uint64_t o0 = read_checkpoint_file(base).stream_offset;
  const std::uint64_t o1 = read_checkpoint_file(base + ".1").stream_offset;
  const std::uint64_t o2 = read_checkpoint_file(base + ".2").stream_offset;
  EXPECT_GT(o0, o1);
  EXPECT_GT(o1, o2);
  EXPECT_EQ(o0, trace.size());  // the final close() frame saw everything

  // Smash the newest frame; resume falls back to generation 1 and reports
  // its offset so a replaying driver knows where to pick up.
  {
    std::ofstream f(base, std::ios::binary | std::ios::trunc);
    f << "not a checkpoint";
  }
  opt.resume = true;
  IngestPipeline<SheCountMin> pipe(opt, cm_factory);
  EXPECT_EQ(pipe.resume_offset(0), o1);
  pipe.start();
  // Replay the tail the fallback frame missed; the estimator is
  // deterministic, so the final answer matches the uninterrupted run.
  ASSERT_EQ(pipe.push_bulk(
                0, std::span<const std::uint64_t>(trace.data() + o1,
                                                  trace.size() - o1)),
            trace.size() - o1);
  pipe.close();
  EXPECT_EQ(pipe.snapshot(0).frequency(42), expect_freq);
  std::filesystem::remove_all(dir);
}

// ------------------------------- RateWindow ---------------------------------

TEST(RateWindow, ComputesWindowedRate) {
  RateWindow w(/*window_seconds=*/2);
  auto ns = [](double s) { return static_cast<std::int64_t>(s * 1e9); };
  EXPECT_EQ(w.rate(), 0.0);
  w.sample(ns(0.0), 0);
  EXPECT_EQ(w.rate(), 0.0);  // one sample spans no interval
  w.sample(ns(1.0), 1000);
  EXPECT_DOUBLE_EQ(w.rate(), 1000.0);
  w.sample(ns(2.0), 3000);
  EXPECT_DOUBLE_EQ(w.rate(), 1500.0);  // covers [0, 2]
  // Old samples fall out: [2, 4] saw (5000 - 3000) / 2 s.
  w.sample(ns(3.0), 4000);
  w.sample(ns(4.0), 5000);
  EXPECT_DOUBLE_EQ(w.rate(), 1000.0);
  // A counter that stops moving decays the rate to 0.
  w.sample(ns(10.0), 5000);
  EXPECT_DOUBLE_EQ(w.rate(), 0.0);
}

// --------------------------- fault spec parsing -----------------------------

TEST(FaultSpec, ParsesAllForms) {
  auto s = fault::parse_spec("throw");
  EXPECT_EQ(s.point, fault::Point::kWorkerThrow);
  EXPECT_EQ(s.shard, fault::kAnyShard);
  s = fault::parse_spec("stall:any:1000:250");
  EXPECT_EQ(s.point, fault::Point::kConsumerStall);
  EXPECT_EQ(s.shard, fault::kAnyShard);
  EXPECT_EQ(s.at, 1000u);
  EXPECT_EQ(s.param, 250u);
  s = fault::parse_spec("ckpt-bitflip:2:1:42");
  EXPECT_EQ(s.point, fault::Point::kCheckpointBitFlip);
  EXPECT_EQ(s.shard, 2u);
  s = fault::parse_spec("ckpt-truncate:0");
  EXPECT_EQ(s.point, fault::Point::kCheckpointTruncate);
  s = fault::parse_spec("wal-torn:0:5");
  EXPECT_EQ(s.point, fault::Point::kWalTornWrite);
  EXPECT_EQ(s.shard, 0u);
  EXPECT_EQ(s.at, 5u);
  s = fault::parse_spec("wal-partial:any:2");
  EXPECT_EQ(s.point, fault::Point::kWalPartialFrame);
  EXPECT_EQ(s.shard, fault::kAnyShard);
  EXPECT_EQ(s.at, 2u);
  s = fault::parse_spec("wal-short-fsync");
  EXPECT_EQ(s.point, fault::Point::kWalShortFsync);
  EXPECT_THROW((void)fault::parse_spec("frob"), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_spec("throw:x"), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_spec("throw:0:1:2:3"), std::invalid_argument);
}

#if defined(SHE_FAULT_INJECTION)

/// Clears the process-global injector around every test so armed specs
/// never leak across tests.
class FaultTolerance : public ::testing::Test {
 protected:
  void SetUp() override { fault::injector().clear(); }
  void TearDown() override { fault::injector().clear(); }
};

SheConfig bf_cfg(std::uint64_t window) {
  SheConfig cfg;
  cfg.window = window;
  cfg.cells = 1 << 14;
  cfg.group_cells = 64;
  cfg.alpha = 3.0;
  return cfg;
}

IngestPipeline<SheBloomFilter>::Factory bf_factory(std::size_t shards,
                                                   std::uint64_t window) {
  return [shards, window](std::size_t s) {
    SheConfig cfg = bf_cfg(window / shards);
    cfg.seed = static_cast<std::uint32_t>(s);
    return SheBloomFilter(cfg, 8);
  };
}

template <typename Estimator>
std::string serialized(const Estimator& est) {
  std::stringstream ss;
  BinaryWriter w(ss);
  est.save(w);
  return ss.str();
}

/// The acceptance scenario: checkpoint every k items, kill the worker
/// mid-stream, then resume from the frames and replay the rest of the
/// trace — the final serialized state must be byte-for-byte identical to
/// an unfaulted sequential run.
template <typename Estimator>
void kill_and_recover_byte_identical(
    const std::function<Estimator(std::size_t)>& factory) {
  constexpr std::size_t kShards = 2;
  const auto trace = stream::distinct_trace(50'000, 21);
  const std::string dir =
      temp_dir((std::string("kill_recover_") + typeid(Estimator).name())
                   .c_str());

  Sharded<Estimator> reference(kShards, factory);
  for (auto k : trace) reference.insert(k);

  PipelineOptions opt;
  opt.shards = kShards;
  opt.producers = 1;
  opt.queue_capacity = 1024;
  opt.publish_interval = 512;
  opt.policy = Backpressure::kBlock;
  opt.checkpoint_dir = dir;
  opt.checkpoint_interval = 2048;

  // Run 1: no supervisor — the injected throw kills shard 0's worker for
  // good mid-stream.  Pushes to the dead shard fail fast instead of
  // hanging, so the producer still completes.
  fault::injector().arm({fault::Point::kWorkerThrow, 0, 20'000, 0});
  {
    IngestPipeline<Estimator> pipe(opt, factory);
    pipe.start();
    (void)pipe.push_bulk(0, trace);
    pipe.close();
    const auto st = pipe.stats();
    EXPECT_EQ(st.worker_faults, 1u);
    EXPECT_TRUE(pipe.faulted());
    EXPECT_GT(st.checkpoints, 0u);
  }
  fault::injector().clear();

  // Run 2: resume from the surviving frames, skip each shard's recorded
  // prefix, replay the remainder of the same trace.
  PipelineOptions ropt = opt;
  ropt.resume = true;
  IngestPipeline<Estimator> pipe(ropt, factory);
  std::vector<std::uint64_t> skip(kShards);
  std::uint64_t skip_total = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    skip[s] = pipe.resume_offset(s);
    skip_total += skip[s];
  }
  EXPECT_GT(skip_total, 0u);
  pipe.start();
  for (auto key : trace) {
    const std::size_t s = pipe.shard_of(key);
    if (skip[s] > 0) {
      --skip[s];
      continue;
    }
    ASSERT_TRUE(pipe.push(0, key));
  }
  pipe.close();
  EXPECT_FALSE(pipe.faulted());

  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(serialized(pipe.snapshot(s)), serialized(reference.shard(s)))
        << "shard " << s << " state diverged across kill + resume";
  }
  std::filesystem::remove_all(dir);
}

TEST_F(FaultTolerance, KillAndRecoverByteIdenticalSheBloom) {
  kill_and_recover_byte_identical<SheBloomFilter>(bf_factory(2, 16'384));
}

TEST_F(FaultTolerance, KillAndRecoverByteIdenticalSheCountMin) {
  kill_and_recover_byte_identical<SheCountMin>([](std::size_t s) {
    SheConfig cfg;
    cfg.window = 8192;
    cfg.cells = 1 << 13;
    cfg.group_cells = 64;
    cfg.alpha = 1.0;
    cfg.seed = static_cast<std::uint32_t>(s);
    return SheCountMin(cfg, 8);
  });
}

TEST_F(FaultTolerance, CorruptCheckpointRejectedOnResume) {
  const std::string dir = temp_dir("corrupt_resume");
  const auto trace = stream::distinct_trace(20'000, 5);
  PipelineOptions opt;
  opt.shards = 1;
  opt.producers = 1;
  opt.publish_interval = 512;
  opt.checkpoint_dir = dir;
  opt.checkpoint_interval = 1024;
  // Run a clean checkpointed ingest, then flip one payload bit in the
  // durable file — the resume constructor must refuse to load it.
  {
    IngestPipeline<SheBloomFilter> pipe(opt, bf_factory(1, 8192));
    pipe.start();
    ASSERT_EQ(pipe.push_bulk(0, trace), trace.size());
    pipe.close();
  }
  const std::string path = dir + "/shard-0.ckpt";
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(40);
    char b = 0;
    f.seekg(40);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x01);
    f.seekp(40);
    f.write(&b, 1);
  }
  PipelineOptions ropt = opt;
  ropt.resume = true;
  const std::uint64_t before = corrupt_count();
  EXPECT_THROW(IngestPipeline<SheBloomFilter>(ropt, bf_factory(1, 8192)),
               CheckpointError);
  EXPECT_EQ(corrupt_count(), before + 1);
  std::filesystem::remove_all(dir);
}

TEST_F(FaultTolerance, InjectedCheckpointCorruptionIsCaughtOnRead) {
  // End-to-end through the injection hook: the frame is bit-flipped on its
  // way to disk, and the durable file is rejected instead of loaded.
  const std::string dir = temp_dir("inject_bitflip");
  const auto trace = stream::distinct_trace(8'000, 9);
  PipelineOptions opt;
  opt.shards = 1;
  opt.producers = 1;
  opt.publish_interval = 512;
  opt.checkpoint_dir = dir;
  opt.checkpoint_interval = 100'000;  // only the final frame is written
  fault::injector().arm({fault::Point::kCheckpointBitFlip, 0, 0, 12345});
  {
    IngestPipeline<SheBloomFilter> pipe(opt, bf_factory(1, 4096));
    pipe.start();
    ASSERT_EQ(pipe.push_bulk(0, trace), trace.size());
    pipe.close();
  }
  const std::uint64_t before = corrupt_count();
  EXPECT_THROW((void)read_checkpoint_file(dir + "/shard-0.ckpt"),
               CheckpointError);
  EXPECT_EQ(corrupt_count(), before + 1);
  std::filesystem::remove_all(dir);
}

TEST_F(FaultTolerance, SupervisorRestartsFaultedWorkerLosslesslyAccounted) {
  const auto trace = stream::distinct_trace(40'000, 31);
  PipelineOptions opt;
  opt.shards = 1;
  opt.producers = 1;
  opt.queue_capacity = 512;
  opt.publish_interval = 256;
  opt.policy = Backpressure::kBlock;
  opt.supervise = true;
  fault::injector().arm({fault::Point::kWorkerThrow, 0, 8'000, 0});

  IngestPipeline<SheBloomFilter> pipe(opt, bf_factory(1, 16'384));
  pipe.start();
  ASSERT_EQ(pipe.push_bulk(0, trace), trace.size());
  pipe.close();

  const auto st = pipe.stats();
  EXPECT_EQ(st.worker_faults, 1u);
  EXPECT_GE(st.worker_restarts, 1u);
  EXPECT_EQ(st.dropped, 0u);
  EXPECT_EQ(st.produced, trace.size());
  // Conservation: what the estimator ends up having seen is exactly the
  // accepted stream minus what the rollback discarded (the ring backlog is
  // replayed, not lost).
  EXPECT_EQ(pipe.snapshot(0).time() + st.items_lost, trace.size());
  EXPECT_FALSE(pipe.faulted());
}

TEST_F(FaultTolerance, SupervisorFencesWedgedWorkerWithoutLoss) {
  const auto trace = stream::distinct_trace(30'000, 33);
  PipelineOptions opt;
  opt.shards = 1;
  opt.producers = 1;
  opt.queue_capacity = 512;
  opt.publish_interval = 256;
  opt.policy = Backpressure::kBlock;
  opt.supervise = true;
  opt.heartbeat_timeout_ms = 100;
  opt.sample_interval_ms = 5;
  // Stall the worker for 500 ms early in the stream: long enough that the
  // sampler must flag it as wedged.  Nothing restarts it; the worker
  // carries on when it wakes, with nothing lost.
  fault::injector().arm({fault::Point::kConsumerStall, 0, 2'000, 500});

  IngestPipeline<SheBloomFilter> pipe(opt, bf_factory(1, 16'384));
  pipe.start();
  ASSERT_EQ(pipe.push_bulk(0, trace), trace.size());
  pipe.close();

  const auto st = pipe.stats();
  EXPECT_GE(st.worker_wedged, 1u);
  EXPECT_EQ(st.worker_restarts, 0u);
  EXPECT_EQ(st.worker_faults, 0u);
  EXPECT_EQ(st.items_lost, 0u);
  EXPECT_EQ(pipe.snapshot(0).time(), trace.size());
}

TEST_F(FaultTolerance, BlockTimeoutReturnsWithinConfiguredTimeout) {
  PipelineOptions opt;
  opt.shards = 1;
  opt.producers = 1;
  opt.queue_capacity = 64;
  opt.policy = Backpressure::kBlockTimeout;
  opt.push_timeout_ms = 100;
  // Workers never started: the ring fills and stays full, so the first
  // rejected push is the one whose latency we bound.
  IngestPipeline<SheBloomFilter> pipe(opt, bf_factory(1, 4096));
  std::size_t accepted = 0;
  for (;;) {
    const auto t0 = std::chrono::steady_clock::now();
    if (pipe.push(0, accepted)) {
      ++accepted;
      continue;
    }
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_GE(elapsed, std::chrono::milliseconds(100));
    // Generous bound (tsan, loaded CI): the point is "bounded", not "tight".
    EXPECT_LT(elapsed, std::chrono::seconds(10));
    break;
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_LE(accepted, 64u);

  const auto st = pipe.stats();
  EXPECT_EQ(st.push_timeouts, 1u);

  // The fault/recovery counters must surface in both export formats.
  std::ostringstream prom, json;
  obs::write_prometheus(prom, pipe.metrics_registry());
  obs::write_json(json, pipe.metrics_registry());
  for (const char* name :
       {"she_pipeline_push_timeouts_total", "she_pipeline_worker_restarts_total",
        "she_pipeline_worker_faults_total", "she_pipeline_items_lost_total",
        "she_pipeline_items_replayed_total", "she_pipeline_checkpoints_total",
        "she_pipeline_rate_items_per_sec"}) {
    EXPECT_NE(prom.str().find(name), std::string::npos) << name;
    EXPECT_NE(json.str().find(name), std::string::npos) << name;
  }
  pipe.close();
}

TEST_F(FaultTolerance, DeadShardAbortsBlockedPushes) {
  // A faulted shard with no supervisor must fail pushes instead of letting
  // producers spin forever behind a consumer that will never drain.
  const auto trace = stream::distinct_trace(30'000, 41);
  PipelineOptions opt;
  opt.shards = 1;
  opt.producers = 1;
  opt.queue_capacity = 256;
  opt.policy = Backpressure::kBlock;
  fault::injector().arm({fault::Point::kWorkerThrow, 0, 1'000, 0});
  IngestPipeline<SheBloomFilter> pipe(opt, bf_factory(1, 8192));
  pipe.start();
  const std::size_t accepted = pipe.push_bulk(0, trace);
  EXPECT_LT(accepted, trace.size());
  const auto st = pipe.stats();
  EXPECT_EQ(st.worker_faults, 1u);
  EXPECT_GT(st.dropped, 0u);
  EXPECT_TRUE(pipe.faulted());
  pipe.close();
}

// ------------------- write-ahead backlog log (zero-loss) --------------------

/// The zero-loss acceptance scenario: ingest through the WAL with a
/// seq-tagged client identity, kill shard 0's worker mid-stream (the moral
/// equivalent of kill -9 — accepted items past the last checkpoint live
/// only in the backlog log), then resume.  The WAL holds every accepted
/// item in arrival order, so the resumed estimator must be byte-for-byte
/// identical to an unfaulted sequential run — and a client replaying its
/// last batch with the same sequence number must be deduplicated.
template <typename Estimator>
void wal_crash_replay_byte_identical(
    const std::function<Estimator(std::size_t)>& factory, std::size_t shards,
    const char* tag) {
  const auto trace = stream::distinct_trace(30'000, 23);
  const std::string dir = temp_dir((std::string("wal_crash_") + tag).c_str());

  Sharded<Estimator> reference(shards, factory);
  for (auto k : trace) reference.insert(k);

  PipelineOptions opt;
  opt.shards = shards;
  opt.producers = 1;
  opt.queue_capacity = 1024;
  opt.publish_interval = 512;
  opt.policy = Backpressure::kBlock;
  opt.checkpoint_dir = dir;
  opt.checkpoint_interval = 2048;
  opt.wal_mode = WalMode::kAsync;

  constexpr std::uint64_t kClient = 99;
  constexpr std::size_t kChunk = 500;
  std::uint64_t seq = 0;
  std::span<const std::uint64_t> last_chunk;
  std::uint64_t last_seq = 0;

  // Run 1: the injected throw kills shard 0's worker for good mid-stream.
  // Accepted items keep landing in the WAL even when the ring push fails —
  // durable-but-not-yet-live is exactly the state resume must repair.
  fault::injector().arm({fault::Point::kWorkerThrow, 0, 10'000, 0});
  {
    IngestPipeline<Estimator> pipe(opt, factory);
    pipe.start();
    for (std::size_t i = 0; i < trace.size(); i += kChunk) {
      const std::size_t n = std::min(kChunk, trace.size() - i);
      last_chunk = std::span<const std::uint64_t>(trace.data() + i, n);
      last_seq = ++seq;
      (void)pipe.push_bulk(0, last_chunk, kClient, last_seq, 0);
    }
    pipe.close();
    EXPECT_TRUE(pipe.faulted());
  }
  fault::injector().clear();

  // Run 2: resume replays the backlog past each shard's newest checkpoint.
  // No trace replay from the driver is needed — the log held everything.
  PipelineOptions ropt = opt;
  ropt.resume = true;
  IngestPipeline<Estimator> pipe(ropt, factory);
  std::vector<std::uint64_t> per_shard(shards, 0);
  for (auto k : trace) ++per_shard[pipe.shard_of(k)];
  for (std::size_t s = 0; s < shards; ++s)
    EXPECT_EQ(pipe.resume_offset(s), per_shard[s]) << "shard " << s;

  // A client that never saw the ack for its final batch replays it with the
  // same sequence number: accepted (so the client unblocks) but applied
  // zero times — the dedup table survived the restart through the log.
  pipe.start();
  ASSERT_EQ(pipe.push_bulk(0, last_chunk, kClient, last_seq, 0),
            last_chunk.size());
  pipe.close();
  EXPECT_FALSE(pipe.faulted());

  for (std::size_t s = 0; s < shards; ++s) {
    EXPECT_EQ(serialized(pipe.snapshot(s)), serialized(reference.shard(s)))
        << "shard " << s << " state diverged across kill + WAL resume";
  }
  std::filesystem::remove_all(dir);
}

TEST_F(FaultTolerance, WalCrashReplayByteIdenticalSheBloom) {
  wal_crash_replay_byte_identical<SheBloomFilter>(
      [](std::size_t s) {
        SheConfig cfg;
        cfg.window = 2048;
        cfg.cells = 1 << 14;
        cfg.group_cells = 64;
        cfg.alpha = 2.0;
        cfg.seed = static_cast<std::uint32_t>(s);
        return SheBloomFilter(cfg, 8);
      },
      2, "bloom");
}

TEST_F(FaultTolerance, WalCrashReplayByteIdenticalSheCountMin) {
  wal_crash_replay_byte_identical<SheCountMin>(
      [](std::size_t s) {
        SheConfig cfg;
        cfg.window = 8192;
        cfg.cells = 1 << 13;
        cfg.group_cells = 64;
        cfg.alpha = 1.0;
        cfg.seed = static_cast<std::uint32_t>(s);
        return SheCountMin(cfg, 8);
      },
      2, "cm");
}

TEST_F(FaultTolerance, WalCrashReplayByteIdenticalSheBitmap) {
  wal_crash_replay_byte_identical<SheBitmap>(
      [](std::size_t s) {
        SheConfig cfg;
        cfg.window = 8192;
        cfg.cells = 1 << 13;
        cfg.group_cells = 64;
        cfg.alpha = 0.2;
        cfg.seed = static_cast<std::uint32_t>(s);
        return SheBitmap(cfg);
      },
      2, "bitmap");
}

TEST_F(FaultTolerance, WalCrashReplayByteIdenticalSheHyperLogLog) {
  wal_crash_replay_byte_identical<SheHyperLogLog>(
      [](std::size_t s) {
        SheConfig cfg;
        cfg.window = 8192;
        cfg.cells = 512;
        cfg.group_cells = 1;
        cfg.alpha = 0.2;
        cfg.seed = static_cast<std::uint32_t>(s);
        return SheHyperLogLog(cfg);
      },
      2, "hll");
}

TEST_F(FaultTolerance, WalCrashReplayByteIdenticalSheMinHash) {
  wal_crash_replay_byte_identical<SheMinHash>(
      [](std::size_t s) {
        SheConfig cfg;
        cfg.window = 1024;
        cfg.cells = 128;
        cfg.group_cells = 1;
        cfg.alpha = 0.2;
        cfg.seed = static_cast<std::uint32_t>(s);
        return SheMinHash(cfg);
      },
      1, "minhash");
}

/// A failed WAL append (torn write, partial frame, or short fsync) must
/// surface as a typed WalError with the batch NOT recorded as durable, so
/// the client's retry under the same sequence number lands exactly once —
/// and a duplicate replay after the ack is suppressed, both before and
/// after a restart.
void wal_failed_append_retry(fault::Point point, WalMode mode,
                             const char* tag) {
  const std::string dir = temp_dir((std::string("wal_retry_") + tag).c_str());
  const auto trace = stream::distinct_trace(4'000, 47);
  const auto factory = bf_factory(1, 8192);

  Sharded<SheBloomFilter> reference(1, factory);
  for (auto k : trace) reference.insert(k);

  PipelineOptions opt;
  opt.shards = 1;
  opt.producers = 1;
  opt.publish_interval = 256;
  opt.checkpoint_dir = dir;
  opt.checkpoint_interval = 1u << 20;  // only the final close() frame
  opt.wal_mode = mode;

  const std::size_t half = trace.size() / 2;
  const std::span<const std::uint64_t> first(trace.data(), half);
  const std::span<const std::uint64_t> second(trace.data() + half,
                                              trace.size() - half);
  constexpr std::uint64_t kClient = 7;

  // The injected fault hits WAL frame seq 2 — the second batch's append.
  fault::injector().arm({point, 0, 2, 0});
  {
    IngestPipeline<SheBloomFilter> pipe(opt, factory);
    pipe.start();
    ASSERT_EQ(pipe.push_bulk(0, first, kClient, 1, 0), first.size());
    EXPECT_THROW((void)pipe.push_bulk(0, second, kClient, 2, 0), WalError);
    // The failed append must not have recorded seq 2 as durable: the retry
    // is accepted and applied exactly once ...
    ASSERT_EQ(pipe.push_bulk(0, second, kClient, 2, 0), second.size());
    // ... and a lost-ack duplicate of the now-durable batch is absorbed.
    ASSERT_EQ(pipe.push_bulk(0, second, kClient, 2, 0), second.size());
    pipe.close();
    EXPECT_FALSE(pipe.faulted());
    EXPECT_EQ(serialized(pipe.snapshot(0)), serialized(reference.shard(0)));
  }
  fault::injector().clear();

  // Restart: the dedup table rides the log, so the same duplicate replay
  // is still suppressed and the state stays byte-identical.
  PipelineOptions ropt = opt;
  ropt.resume = true;
  IngestPipeline<SheBloomFilter> pipe(ropt, factory);
  EXPECT_EQ(pipe.resume_offset(0), trace.size());
  pipe.start();
  ASSERT_EQ(pipe.push_bulk(0, second, kClient, 2, 0), second.size());
  pipe.close();
  EXPECT_EQ(serialized(pipe.snapshot(0)), serialized(reference.shard(0)));
  std::filesystem::remove_all(dir);
}

TEST_F(FaultTolerance, WalTornWriteRetryLandsExactlyOnce) {
  wal_failed_append_retry(fault::Point::kWalTornWrite, WalMode::kAsync,
                          "torn");
}

TEST_F(FaultTolerance, WalPartialFrameRetryLandsExactlyOnce) {
  wal_failed_append_retry(fault::Point::kWalPartialFrame, WalMode::kAsync,
                          "partial");
}

TEST_F(FaultTolerance, WalShortFsyncRetryLandsExactlyOnce) {
  wal_failed_append_retry(fault::Point::kWalShortFsync, WalMode::kFsync,
                          "short_fsync");
}

TEST_F(FaultTolerance, WalShedsBeforeLoggingOnBlockTimeout) {
  // A BlockTimeout (or request-deadline) expiry against a full ring must
  // shed the batch *before* anything reaches the log: a shed batch is
  // never durable, its client seq is never recorded, and the retry lands
  // exactly once.  Were the append to happen first, the log would hold a
  // durable-but-never-live batch mid-stream and every later checkpoint
  // offset would name the wrong log prefix.
  const std::string dir = temp_dir("wal_shed_before_log");
  const auto factory = bf_factory(1, 8192);
  PipelineOptions opt;
  opt.shards = 1;
  opt.producers = 1;
  opt.queue_capacity = 64;
  opt.policy = Backpressure::kBlockTimeout;
  opt.push_timeout_ms = 50;
  opt.checkpoint_dir = dir;
  opt.checkpoint_interval = 1u << 20;
  opt.wal_mode = WalMode::kAsync;

  std::vector<std::uint64_t> b1(64), b2(10);
  for (std::size_t i = 0; i < b1.size(); ++i) b1[i] = i;
  for (std::size_t i = 0; i < b2.size(); ++i) b2[i] = 1000 + i;
  Sharded<SheBloomFilter> reference(1, factory);
  for (auto k : b1) reference.insert(k);
  for (auto k : b2) reference.insert(k);

  constexpr std::uint64_t kClient = 5;
  std::string final_image;
  {
    IngestPipeline<SheBloomFilter> pipe(opt, factory);
    // Workers not started yet: the first batch fills the ring exactly,
    // the second cannot reserve space and must time out with nothing
    // logged and nothing recorded.
    ASSERT_EQ(pipe.push_bulk(0, b1, kClient, 1, 0), b1.size());
    ASSERT_EQ(pipe.push_bulk(0, b2, kClient, 2, 0), 0u);
    EXPECT_EQ(pipe.stats().push_timeouts, 1u);
    {
      const WalScan scan = read_wal(dir + "/shard-0.wal");
      ASSERT_EQ(scan.frames.size(), 1u);  // the shed batch never hit the log
      EXPECT_EQ(scan.end_offset, b1.size());
    }
    // The same-seq retry is accepted once the ring has room — it was
    // never marked durable — and a post-ack duplicate is absorbed.
    pipe.start();
    ASSERT_EQ(pipe.push_bulk(0, b2, kClient, 2, 0), b2.size());
    ASSERT_EQ(pipe.push_bulk(0, b2, kClient, 2, 0), b2.size());
    pipe.close();
    final_image = serialized(pipe.snapshot(0));
    EXPECT_EQ(final_image, serialized(reference.shard(0)));
  }

  // And the log agrees: resume reconstructs the same state.
  PipelineOptions ropt = opt;
  ropt.resume = true;
  IngestPipeline<SheBloomFilter> rpipe(ropt, factory);
  EXPECT_EQ(rpipe.resume_offset(0), b1.size() + b2.size());
  rpipe.close();
  EXPECT_EQ(serialized(rpipe.snapshot(0)), final_image);
  std::filesystem::remove_all(dir);
}

TEST_F(FaultTolerance, WalMultiProducerCrashReplayByteIdentical) {
  // With the WAL on, every sub-batch is logged and enqueued in one
  // critical section on the shard's WAL lane, so drain order equals
  // log-append order no matter which producer slot carried the batch —
  // and a crash+resume replay reconstructs exactly that order.  (Batches
  // here rotate across three producer indices from one thread, so the
  // admitted order is the call order and the reference is sequential.)
  const auto factory = bf_factory(1, 16'384);
  const auto trace = stream::distinct_trace(20'000, 29);
  const std::string dir = temp_dir("wal_multiproducer");
  Sharded<SheBloomFilter> reference(1, factory);
  for (auto k : trace) reference.insert(k);

  PipelineOptions opt;
  opt.shards = 1;
  opt.producers = 3;
  opt.queue_capacity = 512;
  opt.publish_interval = 256;
  opt.policy = Backpressure::kBlock;
  opt.checkpoint_dir = dir;
  opt.checkpoint_interval = 2048;
  opt.wal_mode = WalMode::kAsync;

  fault::injector().arm({fault::Point::kWorkerThrow, 0, 9'000, 0});
  {
    IngestPipeline<SheBloomFilter> pipe(opt, factory);
    pipe.start();
    constexpr std::size_t kChunk = 250;
    std::size_t producer = 0;
    for (std::size_t i = 0; i < trace.size(); i += kChunk) {
      const std::size_t n = std::min(kChunk, trace.size() - i);
      (void)pipe.push_bulk(
          producer, std::span<const std::uint64_t>(trace.data() + i, n));
      producer = (producer + 1) % opt.producers;
    }
    pipe.close();
    EXPECT_TRUE(pipe.faulted());
  }
  fault::injector().clear();

  PipelineOptions ropt = opt;
  ropt.resume = true;
  IngestPipeline<SheBloomFilter> pipe(ropt, factory);
  EXPECT_EQ(pipe.resume_offset(0), trace.size());
  pipe.close();
  EXPECT_EQ(serialized(pipe.snapshot(0)), serialized(reference.shard(0)));
  std::filesystem::remove_all(dir);
}

TEST_F(FaultTolerance, WalSupervisedRestartHealsRollbackFromLog) {
  // A supervised fault rolls the estimator back to its last published
  // snapshot; without the WAL the items applied since are gone (counted
  // in items_lost).  With the WAL on they were all logged before they
  // were applied, so the recovery heals them back from the log: nothing
  // is lost, the live state stays byte-identical to a sequential run,
  // and checkpoint offsets written after the restart still name exact
  // log prefixes — verified by the resume replay at the end.
  const auto factory = bf_factory(1, 16'384);
  const auto trace = stream::distinct_trace(30'000, 37);
  const std::string dir = temp_dir("wal_restart_heal");
  Sharded<SheBloomFilter> reference(1, factory);
  for (auto k : trace) reference.insert(k);

  PipelineOptions opt;
  opt.shards = 1;
  opt.producers = 1;
  opt.queue_capacity = 512;
  opt.publish_interval = 256;
  opt.policy = Backpressure::kBlock;
  opt.supervise = true;
  opt.checkpoint_dir = dir;
  opt.checkpoint_interval = 2048;
  opt.wal_mode = WalMode::kAsync;
  fault::injector().arm({fault::Point::kWorkerThrow, 0, 8'000, 0});

  IngestPipeline<SheBloomFilter> pipe(opt, factory);
  pipe.start();
  ASSERT_EQ(pipe.push_bulk(0, trace), trace.size());
  pipe.close();
  const auto st = pipe.stats();
  EXPECT_EQ(st.worker_faults, 1u);
  EXPECT_GE(st.worker_restarts, 1u);
  EXPECT_EQ(st.items_lost, 0u);  // healed from the log, not lost
  EXPECT_EQ(serialized(pipe.snapshot(0)), serialized(reference.shard(0)));
  fault::injector().clear();

  PipelineOptions ropt = opt;
  ropt.resume = true;
  IngestPipeline<SheBloomFilter> rpipe(ropt, factory);
  EXPECT_EQ(rpipe.resume_offset(0), trace.size());
  rpipe.close();
  EXPECT_EQ(serialized(rpipe.snapshot(0)), serialized(reference.shard(0)));
  std::filesystem::remove_all(dir);
}

/// SHE-BF whose insert_batch fails for real: on the `throw_at`-th call
/// process-wide, or on every call while `throw_always` is set.  It applies
/// half its block before throwing, so the live estimator is left
/// mid-batch.  Unlike the injected kWorkerThrow, which fires between
/// blocks, this throws with a block already taken off the ring.
struct FlakyBloom {
  static inline std::atomic<std::uint64_t> calls{0};
  static inline std::uint64_t throw_at = 0;  ///< 0 = never
  static inline bool throw_always = false;

  SheBloomFilter bf;

  static void reset() {
    calls = 0;
    throw_at = 0;
    throw_always = false;
  }
  void insert(std::uint64_t key) { bf.insert(key); }
  void insert_batch(std::span<const std::uint64_t> keys) {
    const std::uint64_t call = ++calls;
    if (throw_always || call == throw_at) {
      bf.insert_batch(keys.first(keys.size() / 2));
      throw std::runtime_error("FlakyBloom: insert_batch failed");
    }
    bf.insert_batch(keys);
  }
  [[nodiscard]] std::uint64_t time() const { return bf.time(); }
  void save(BinaryWriter& w) const { bf.save(w); }
  static FlakyBloom load(BinaryReader& r) {
    return FlakyBloom{SheBloomFilter::load(r)};
  }
};

IngestPipeline<FlakyBloom>::Factory flaky_factory() {
  return [](std::size_t s) { return FlakyBloom{bf_factory(1, 16'384)(s)}; };
}

PipelineOptions flaky_options() {
  PipelineOptions opt;
  opt.shards = 1;
  opt.producers = 1;
  opt.queue_capacity = 1024;
  opt.publish_interval = 4096;  // the rollback gap spans several blocks
  opt.policy = Backpressure::kBlock;
  opt.supervise = true;
  return opt;
}

TEST_F(FaultTolerance, EstimatorThrowMidSweepHealsFromLog) {
  // Every item taken off the ring counts as consumed, including the
  // block whose insert_batch threw, so recovery replays all of them from
  // the log and the state matches a sequential run byte for byte.
  const auto trace = stream::distinct_trace(30'000, 53);
  const std::string dir = temp_dir("flaky_wal");
  Sharded<SheBloomFilter> reference(1, bf_factory(1, 16'384));
  for (auto k : trace) reference.insert(k);

  PipelineOptions opt = flaky_options();
  opt.checkpoint_dir = dir;
  opt.checkpoint_interval = 2048;
  opt.wal_mode = WalMode::kAsync;
  FlakyBloom::reset();
  FlakyBloom::throw_at = 20;
  {
    IngestPipeline<FlakyBloom> pipe(opt, flaky_factory());
    pipe.start();
    ASSERT_EQ(pipe.push_bulk(0, trace), trace.size());
    pipe.close();
    const auto st = pipe.stats();
    EXPECT_EQ(st.worker_faults, 1u);
    EXPECT_EQ(st.worker_restarts, 1u);
    EXPECT_EQ(st.items_lost, 0u);
    EXPECT_FALSE(pipe.faulted());
    EXPECT_EQ(serialized(pipe.snapshot(0)), serialized(reference.shard(0)));
  }
  FlakyBloom::reset();

  // Checkpoints written after the recovery still name exact log prefixes.
  PipelineOptions ropt = opt;
  ropt.resume = true;
  IngestPipeline<FlakyBloom> rpipe(ropt, flaky_factory());
  EXPECT_EQ(rpipe.resume_offset(0), trace.size());
  rpipe.close();
  EXPECT_EQ(serialized(rpipe.snapshot(0)), serialized(reference.shard(0)));
  std::filesystem::remove_all(dir);
}

TEST_F(FaultTolerance, EstimatorThrowMidSweepAccountsLossWithoutLog) {
  // Without the log the rollback gap is lost, and every lost item is
  // counted: the block that threw and the ones applied before it.
  const auto trace = stream::distinct_trace(30'000, 53);
  FlakyBloom::reset();
  FlakyBloom::throw_at = 20;
  IngestPipeline<FlakyBloom> pipe(flaky_options(), flaky_factory());
  pipe.start();
  const std::size_t accepted = pipe.push_bulk(0, trace);
  pipe.close();
  FlakyBloom::reset();

  const auto st = pipe.stats();
  EXPECT_EQ(accepted, trace.size());
  EXPECT_EQ(st.worker_faults, 1u);
  EXPECT_EQ(st.worker_restarts, 1u);
  EXPECT_GT(st.items_lost, 0u);
  EXPECT_EQ(pipe.snapshot(0).time() + st.items_lost, accepted);
  EXPECT_FALSE(pipe.faulted());
}

TEST_F(FaultTolerance, EstimatorThatAlwaysThrowsDiesAfterRestartCap) {
  // Every recovery faults again; the shard gives up after the cap, and
  // from then on pushes to it fail instead of blocking forever.
  const auto trace = stream::distinct_trace(30'000, 59);
  PipelineOptions opt = flaky_options();
  opt.queue_capacity = 256;
  FlakyBloom::reset();
  FlakyBloom::throw_always = true;
  IngestPipeline<FlakyBloom> pipe(opt, flaky_factory());
  pipe.start();
  EXPECT_LT(pipe.push_bulk(0, trace), trace.size());
  EXPECT_TRUE(pipe.faulted());
  EXPECT_FALSE(pipe.push(0, trace.front()));
  pipe.close();
  FlakyBloom::reset();

  const auto st = pipe.stats();
  EXPECT_EQ(st.worker_restarts, 16u);
  EXPECT_EQ(st.worker_faults, 17u);
  EXPECT_GT(st.dropped, 0u);
}

TEST_F(FaultTolerance, AllCheckpointGenerationsCorruptFailsLoudly) {
  // Retention is not a license to resume from nothing: when every retained
  // generation is demonstrably corrupt, the resume constructor must throw
  // the typed error instead of silently starting fresh.
  const std::string dir = temp_dir("all_gens_corrupt");
  const auto trace = stream::distinct_trace(12'000, 51);
  PipelineOptions opt;
  opt.shards = 1;
  opt.producers = 1;
  opt.publish_interval = 512;
  opt.checkpoint_dir = dir;
  opt.checkpoint_interval = 1024;
  opt.checkpoint_keep = 2;
  {
    IngestPipeline<SheBloomFilter> pipe(opt, bf_factory(1, 8192));
    pipe.start();
    ASSERT_EQ(pipe.push_bulk(0, trace), trace.size());
    pipe.close();
  }
  const std::string base = dir + "/shard-0.ckpt";
  ASSERT_TRUE(std::filesystem::exists(base));
  ASSERT_TRUE(std::filesystem::exists(base + ".1"));
  for (const std::string& path : {base, base + ".1"}) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "garbage";
  }
  PipelineOptions ropt = opt;
  ropt.resume = true;
  const std::uint64_t before = corrupt_count();
  EXPECT_THROW(IngestPipeline<SheBloomFilter>(ropt, bf_factory(1, 8192)),
               CheckpointError);
  EXPECT_GE(corrupt_count(), before + 2);  // both generations rejected loudly
  std::filesystem::remove_all(dir);
}

// ----------------------- concurrency (tsan-focused) -------------------------

TEST(FaultToleranceConcurrency, DropNewestMultiProducerExactAccounting) {
  constexpr std::size_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 25'000;
  PipelineOptions opt;
  opt.shards = 2;
  opt.producers = kProducers;
  opt.queue_capacity = 256;
  opt.policy = Backpressure::kDropNewest;
  IngestPipeline<SheBloomFilter> pipe(opt, bf_factory(2, 16'384));
  pipe.start();

  std::vector<std::thread> producers;
  std::atomic<std::uint64_t> accepted{0};
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::uint64_t ok = 0;
      for (std::uint64_t i = 0; i < kPerProducer; ++i)
        ok += pipe.push(p, p * kPerProducer + i) ? 1 : 0;
      accepted.fetch_add(ok, std::memory_order_relaxed);
    });
  }
  for (auto& t : producers) t.join();
  pipe.close();

  const auto st = pipe.stats();
  // Exact, not approximate: every offered item is counted exactly once as
  // accepted or dropped, even under full multi-producer contention.
  EXPECT_EQ(st.produced + st.dropped, kProducers * kPerProducer);
  EXPECT_EQ(st.produced, accepted.load());
  EXPECT_EQ(st.inserted, st.produced);  // accepted items all drained at close
}

TEST(FaultToleranceConcurrency, ReadersNeverSeeTornSnapshotsOrBadFrames) {
  // A SnapshotReader and a checkpoint-file reader race the worker while it
  // publishes and checkpoints at a high cadence.  The seqlock must never
  // yield a torn (unloadable or time-regressing) snapshot, and the atomic
  // write-rename must never expose a torn frame: every read is either
  // "no file yet" or a fully valid checkpoint with monotone offsets.
  const std::string dir = temp_dir("torn_race");
  const auto trace = stream::distinct_trace(60'000, 51);
  PipelineOptions opt;
  opt.shards = 1;
  opt.producers = 1;
  opt.queue_capacity = 1024;
  opt.publish_interval = 128;
  opt.policy = Backpressure::kBlock;
  opt.checkpoint_dir = dir;
  opt.checkpoint_interval = 256;
  IngestPipeline<SheBloomFilter> pipe(opt, bf_factory(1, 16'384));
  pipe.start();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> snapshot_reads{0};
  std::atomic<std::uint64_t> frame_reads{0};
  std::thread snap_reader([&] {
    SnapshotReader<SheBloomFilter> reader(pipe.snapshot_slot(0));
    std::uint64_t last_time = 0;
    while (!stop.load(std::memory_order_acquire)) {
      try {
        const SheBloomFilter& bf = reader.get();  // throws on a torn image
        if (bf.time() < last_time) {
          ADD_FAILURE() << "snapshot time went backwards: " << bf.time()
                        << " after " << last_time;
          return;
        }
        last_time = bf.time();
      } catch (const std::exception& e) {
        ADD_FAILURE() << "torn snapshot: " << e.what();
        return;
      }
      snapshot_reads.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::thread frame_reader([&] {
    const std::string path = dir + "/shard-0.ckpt";
    std::uint64_t last_offset = 0;
    while (!stop.load(std::memory_order_acquire)) {
      try {
        const auto ck = try_read_checkpoint_file(path);  // throws if torn
        if (!ck) continue;  // no frame yet — a valid answer
        if (ck->stream_offset < last_offset) {
          ADD_FAILURE() << "checkpoint offset went backwards: "
                        << ck->stream_offset << " after " << last_offset;
          return;
        }
        last_offset = ck->stream_offset;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "torn or invalid checkpoint frame: " << e.what();
        return;
      }
      frame_reads.fetch_add(1, std::memory_order_relaxed);
    }
  });

  ASSERT_EQ(pipe.push_bulk(0, trace), trace.size());
  pipe.close();
  stop.store(true, std::memory_order_release);
  snap_reader.join();
  frame_reader.join();
  EXPECT_GT(snapshot_reads.load(), 0u);
  EXPECT_GT(frame_reads.load(), 0u);
  const auto st = pipe.stats();
  EXPECT_GT(st.checkpoints, 0u);
  EXPECT_EQ(st.inserted, trace.size());
  std::filesystem::remove_all(dir);
}

#endif  // SHE_FAULT_INJECTION

}  // namespace
}  // namespace she::runtime
