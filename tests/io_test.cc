// Tests for the met::io layer: CRC32C, Status classification, the
// retry/short-transfer policy loop, the Posix backend conveniences, and the
// deterministic fault-injection environment.
#include <cerrno>
#include <cstdio>
#include <string>

#include "io/crc32c.h"
#include "io/fault_env.h"
#include "io/io.h"
#include "io/status.h"
#include "gtest/gtest.h"

namespace met::io {
namespace {

std::string TestPath(const char* name) {
  return std::string("/tmp/met_io_test_") + name;
}

// ---------------------------------------------------------------------------
// CRC32C
// ---------------------------------------------------------------------------

TEST(Crc32cTest, KnownVectors) {
  // Standard CRC32C check value (iSCSI / RFC 3720 test pattern).
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
  // 32 zero bytes, another published vector.
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t part = Crc32c(data.data(), split);
    uint32_t whole = Crc32c(data.data() + split, data.size() - split, part);
    EXPECT_EQ(whole, Crc32c(data)) << "split at " << split;
  }
}

// Crc32c() is the SSE4.2 instruction when the build enables it; it must be
// the same function as the slicing-by-4 fallback at every length and
// alignment (the hardware path has bytewise head/tail loops around 8-byte
// steps), and chain through `init` the same way.
TEST(Crc32cTest, HardwareMatchesSoftware) {
  EXPECT_EQ(Crc32cSoftware("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  std::string buf(256 + 8, '\0');
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (char& c : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    c = static_cast<char>(x);
  }
  for (size_t off = 0; off < 8; ++off) {
    for (size_t len = 0; len <= 256; ++len) {
      const char* p = buf.data() + off;
      const uint32_t sw = Crc32cSoftware(p, len);
      ASSERT_EQ(Crc32c(p, len), sw) << "offset " << off << " length " << len;
      const size_t split = len / 3;
      const uint32_t chained = Crc32c(p + split, len - split, Crc32c(p, split));
      ASSERT_EQ(chained, sw) << "offset " << off << " length " << len;
      ASSERT_EQ(
          Crc32cSoftware(p + split, len - split, Crc32cSoftware(p, split)),
          sw);
    }
  }
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  std::string data = "block payload under test";
  uint32_t base = Crc32c(data);
  for (size_t bit = 0; bit < data.size() * 8; ++bit) {
    data[bit / 8] ^= static_cast<char>(1 << (bit % 8));
    EXPECT_NE(Crc32c(data), base) << "bit " << bit;
    data[bit / 8] ^= static_cast<char>(1 << (bit % 8));
  }
}

// ---------------------------------------------------------------------------
// Status
// ---------------------------------------------------------------------------

TEST(StatusTest, TransientClassification) {
  EXPECT_TRUE(Status::IoError("x", EINTR).transient());
  EXPECT_TRUE(Status::IoError("x", EAGAIN).transient());
  EXPECT_TRUE(Status::IoError("x", ENOSPC).transient());
  EXPECT_TRUE(Status::IoError("x", EBUSY).transient());
  EXPECT_FALSE(Status::IoError("x", EIO).transient());
  EXPECT_FALSE(Status::IoError("x").transient());
  EXPECT_FALSE(Status::Corruption("x").transient());
  EXPECT_FALSE(Status::OK().transient());

  EXPECT_TRUE(Status::IoError("x", EINTR).retry_immediately());
  EXPECT_FALSE(Status::IoError("x", ENOSPC).retry_immediately());
}

TEST(StatusTest, RetryPolicyBackoffIsCapped) {
  RetryPolicy p;
  p.base_delay_us = 100;
  p.max_delay_us = 1000;
  EXPECT_EQ(p.DelayForAttempt(0), 100u);
  EXPECT_EQ(p.DelayForAttempt(1), 200u);
  EXPECT_EQ(p.DelayForAttempt(2), 400u);
  EXPECT_EQ(p.DelayForAttempt(10), 1000u);  // capped
}

// ---------------------------------------------------------------------------
// Posix backend + policy layer
// ---------------------------------------------------------------------------

TEST(PosixEnvTest, WriteReadRoundTrip) {
  Env& env = Env::Posix();
  const std::string path = TestPath("roundtrip");
  ASSERT_TRUE(env.WriteStringToFile(path, "hello, disk", /*sync=*/true).ok());
  std::string back;
  ASSERT_TRUE(env.ReadFileToString(path, &back).ok());
  EXPECT_EQ(back, "hello, disk");
  uint64_t size = 0;
  ASSERT_TRUE(env.FileSize(path, &size).ok());
  EXPECT_EQ(size, back.size());
  EXPECT_TRUE(env.FileExists(path));
  ASSERT_TRUE(env.Remove(path).ok());
  EXPECT_FALSE(env.FileExists(path));
}

TEST(PosixEnvTest, ReadPastEofIsCorruption) {
  Env& env = Env::Posix();
  const std::string path = TestPath("eof");
  ASSERT_TRUE(env.WriteStringToFile(path, "short", /*sync=*/false).ok());
  std::unique_ptr<File> f;
  ASSERT_TRUE(env.NewFile(path, OpenMode::kRead, &f).ok());
  char buf[64];
  Status s = f->ReadFull(0, buf, sizeof(buf));
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  (void)env.Remove(path);
}

TEST(PosixEnvTest, MissingFileIsNotFound) {
  Env& env = Env::Posix();
  std::unique_ptr<File> f;
  EXPECT_TRUE(
      env.NewFile(TestPath("nope"), OpenMode::kRead, &f).IsNotFound());
  std::string s;
  EXPECT_TRUE(env.ReadFileToString(TestPath("nope"), &s).IsNotFound());
}

TEST(PosixEnvTest, AtomicWriteFileReplaces) {
  Env& env = Env::Posix();
  const std::string path = TestPath("atomic");
  ASSERT_TRUE(env.AtomicWriteFile(path, "v1").ok());
  ASSERT_TRUE(env.AtomicWriteFile(path, "v2").ok());
  std::string back;
  ASSERT_TRUE(env.ReadFileToString(path, &back).ok());
  EXPECT_EQ(back, "v2");
  EXPECT_FALSE(env.FileExists(path + ".tmp"));
  (void)env.Remove(path);
}

TEST(PosixEnvTest, OpenFdGaugeTracksLifecycle) {
  Env& env = Env::Posix();
  const std::string path = TestPath("fds");
  obs::Gauge* gauge = IoObsMetrics::Get().open_fds;
  int64_t before = gauge->Value();
  {
    std::unique_ptr<File> f;
    ASSERT_TRUE(env.NewFile(path, OpenMode::kWrite, &f).ok());
    EXPECT_EQ(gauge->Value(), before + 1);
    ASSERT_TRUE(f->Close().ok());
    EXPECT_EQ(gauge->Value(), before);
  }
  {
    // Destructor-closed (no explicit Close) must also release the budget.
    std::unique_ptr<File> f;
    ASSERT_TRUE(env.NewFile(path, OpenMode::kRead, &f).ok());
    EXPECT_EQ(gauge->Value(), before + 1);
  }
  EXPECT_EQ(gauge->Value(), before);
  (void)env.Remove(path);
}

// ---------------------------------------------------------------------------
// FaultSpec parsing
// ---------------------------------------------------------------------------

TEST(FaultSpecTest, ParsesFullGrammar) {
  FaultSpec spec;
  ASSERT_TRUE(FaultSpec::Parse(
                  "seed=7,eintr=0.05,short=0.1,enospc=0.002,fsync=0.01,"
                  "torn=0.01,bitflip=0.001,kill_after=42",
                  &spec)
                  .ok());
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_DOUBLE_EQ(spec.eintr, 0.05);
  EXPECT_DOUBLE_EQ(spec.short_rw, 0.1);
  EXPECT_DOUBLE_EQ(spec.enospc, 0.002);
  EXPECT_DOUBLE_EQ(spec.fsync_fail, 0.01);
  EXPECT_DOUBLE_EQ(spec.torn, 0.01);
  EXPECT_DOUBLE_EQ(spec.bitflip, 0.001);
  EXPECT_EQ(spec.kill_after, 42u);
  EXPECT_TRUE(spec.HasReadFaults());

  FaultSpec empty;
  ASSERT_TRUE(FaultSpec::Parse("", &empty).ok());
  EXPECT_FALSE(empty.HasReadFaults());
  EXPECT_EQ(empty.seed, 1u);
}

TEST(FaultSpecTest, RejectsMalformedSpecs) {
  FaultSpec spec;
  EXPECT_TRUE(FaultSpec::Parse("bogus=1", &spec).IsInvalidArgument());
  EXPECT_TRUE(FaultSpec::Parse("eintr", &spec).IsInvalidArgument());
  EXPECT_TRUE(FaultSpec::Parse("eintr=nope", &spec).IsInvalidArgument());
  EXPECT_TRUE(FaultSpec::Parse("eintr=1.5", &spec).IsInvalidArgument());
  EXPECT_TRUE(FaultSpec::Parse("eintr=-0.1", &spec).IsInvalidArgument());
  EXPECT_TRUE(FaultSpec::Parse("seed=12x", &spec).IsInvalidArgument());
}

TEST(FaultSpecTest, ToStringRoundTrips) {
  FaultSpec spec;
  ASSERT_TRUE(
      FaultSpec::Parse("seed=3,torn=0.25,kill_after=9", &spec).ok());
  FaultSpec again;
  ASSERT_TRUE(FaultSpec::Parse(spec.ToString(), &again).ok());
  EXPECT_EQ(again.seed, 3u);
  EXPECT_DOUBLE_EQ(again.torn, 0.25);
  EXPECT_EQ(again.kill_after, 9u);
}

// ---------------------------------------------------------------------------
// FaultyEnv
// ---------------------------------------------------------------------------

FaultSpec MakeSpec(const char* str) {
  FaultSpec spec;
  Status s = FaultSpec::Parse(str, &spec);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return spec;
}

TEST(FaultyEnvTest, EintrRetriesSucceed) {
  FaultyEnv env(Env::Posix(), MakeSpec("seed=11,eintr=0.3"));
  const std::string path = TestPath("faulty_eintr");
  obs::Counter* retries = IoObsMetrics::Get().retries;
  uint64_t retries_before = retries->Value();

  std::unique_ptr<File> f;
  ASSERT_TRUE(env.NewFile(path, OpenMode::kWrite, &f).ok());
  std::string payload(4096, 'a');
  // Chunked I/O so the 0.3 rate sees enough attempts to fire for sure (a
  // fault-free run would need ~128 consecutive 0.7 rolls).
  constexpr size_t kChunk = 64;
  for (size_t off = 0; off < payload.size(); off += kChunk) {
    ASSERT_TRUE(
        f->WriteFull(off, std::string_view(payload).substr(off, kChunk)).ok());
  }
  ASSERT_TRUE(f->Close().ok());

  ASSERT_TRUE(env.NewFile(path, OpenMode::kRead, &f).ok());
  std::string back(payload.size(), '\0');
  for (size_t off = 0; off < back.size(); off += kChunk) {
    ASSERT_TRUE(f->ReadFull(off, back.data() + off, kChunk).ok());
  }
  EXPECT_EQ(back, payload);

  EXPECT_GT(env.counts().eintr, 0u);
  EXPECT_GT(retries->Value(), retries_before);
  (void)Env::Posix().Remove(path);
}

TEST(FaultyEnvTest, ShortWritesStillLandEveryByte) {
  // short=1.0: every attempt with n > 1 transfers only half, so the policy
  // loop must stitch the payload together from a log2 cascade of prefixes.
  FaultyEnv env(Env::Posix(), MakeSpec("seed=5,short=1.0"));
  const std::string path = TestPath("faulty_short");
  std::unique_ptr<File> f;
  ASSERT_TRUE(env.NewFile(path, OpenMode::kWrite, &f).ok());
  std::string payload;
  for (int i = 0; i < 1000; ++i) payload += std::to_string(i) + ";";
  ASSERT_TRUE(f->WriteFull(0, payload).ok());
  size_t appended = 0;
  ASSERT_TRUE(f->AppendFull(payload, RetryPolicy(), &appended).ok());
  EXPECT_EQ(appended, payload.size());
  ASSERT_TRUE(f->Close().ok());
  EXPECT_GT(env.counts().short_rw, 0u);

  std::string back;
  ASSERT_TRUE(Env::Posix().ReadFileToString(path, &back).ok());
  EXPECT_EQ(back, payload + payload);
  (void)Env::Posix().Remove(path);
}

TEST(FaultyEnvTest, PermanentEnospcExhaustsRetries) {
  FaultyEnv env(Env::Posix(), MakeSpec("seed=2,enospc=1.0"));
  const std::string path = TestPath("faulty_enospc");
  std::unique_ptr<File> f;
  ASSERT_TRUE(env.NewFile(path, OpenMode::kWrite, &f).ok());
  RetryPolicy policy;
  policy.max_attempts = 3;
  Status s = f->WriteFull(0, "doomed", policy);
  EXPECT_TRUE(s.IsIoError());
  EXPECT_EQ(s.errno_value(), ENOSPC);
  EXPECT_TRUE(s.transient()) << "callers may retry later";
  EXPECT_EQ(env.counts().enospc, 3u);
  (void)f->Close();
  (void)Env::Posix().Remove(path);
}

TEST(FaultyEnvTest, KillAfterTearsNthWriteAndDies) {
  const std::string path = TestPath("faulty_kill");
  (void)Env::Posix().Remove(path);
  // Ops: NewFile(write)=1, first append=2 -> the kill point.
  FaultyEnv env(Env::Posix(), MakeSpec("seed=9,kill_after=2"));
  std::unique_ptr<File> f;
  ASSERT_TRUE(env.NewFile(path, OpenMode::kWrite, &f).ok());
  std::string payload(512, 'k');
  size_t appended = ~0ull;
  Status s = f->AppendFull(payload, RetryPolicy(), &appended);
  ASSERT_TRUE(s.IsIoError()) << s.ToString();
  EXPECT_TRUE(env.dead());
  EXPECT_EQ(env.counts().torn, 1u);
  // The reported progress must equal the bytes actually on disk.
  EXPECT_LT(appended, payload.size());
  uint64_t size = 0;
  ASSERT_TRUE(Env::Posix().FileSize(path, &size).ok());
  EXPECT_EQ(size, appended);
  // Every later write-side op fails permanently; reads still work.
  Status s2 = f->AppendFull(payload);
  EXPECT_TRUE(s2.IsIoError());
  EXPECT_FALSE(s2.transient());
  EXPECT_TRUE(env.FileExists(path));
  (void)f->Close();
  (void)Env::Posix().Remove(path);
}

TEST(FaultyEnvTest, SameSeedSameFaults) {
  auto run = [&](uint64_t seed) {
    FaultSpec spec = MakeSpec("eintr=0.2,short=0.2,enospc=0.05,bitflip=0.1");
    spec.seed = seed;
    FaultyEnv env(Env::Posix(), spec);
    const std::string path = TestPath("faulty_det");
    std::unique_ptr<File> f;
    EXPECT_TRUE(env.NewFile(path, OpenMode::kWrite, &f).ok());
    std::string payload(2048, 'd');
    RetryPolicy patient;
    patient.max_attempts = 50;
    (void)f->WriteFull(0, payload, patient);
    (void)f->Close();
    EXPECT_TRUE(env.NewFile(path, OpenMode::kRead, &f).ok());
    std::string back(payload.size(), '\0');
    (void)f->ReadFull(0, back.data(), back.size(), patient);
    (void)f->Close();
    (void)Env::Posix().Remove(path);
    return env.counts();
  };
  FaultCounts a = run(1234);
  FaultCounts b = run(1234);
  FaultCounts c = run(4321);
  EXPECT_GT(a.Total(), 0u);
  EXPECT_EQ(a.eintr, b.eintr);
  EXPECT_EQ(a.short_rw, b.short_rw);
  EXPECT_EQ(a.enospc, b.enospc);
  EXPECT_EQ(a.bitflip, b.bitflip);
  // Different seed => (almost surely) a different pattern.
  EXPECT_NE(a.Total(), c.Total());
}

TEST(FaultyEnvTest, BitFlipsCorruptReads) {
  FaultyEnv env(Env::Posix(), MakeSpec("seed=6,bitflip=1.0"));
  const std::string path = TestPath("faulty_flip");
  ASSERT_TRUE(
      Env::Posix().WriteStringToFile(path, std::string(256, 'z'), false).ok());
  std::unique_ptr<File> f;
  ASSERT_TRUE(env.NewFile(path, OpenMode::kRead, &f).ok());
  std::string back(256, '\0');
  ASSERT_TRUE(f->ReadFull(0, back.data(), back.size()).ok());
  EXPECT_NE(back, std::string(256, 'z'));
  EXPECT_GT(env.counts().bitflip, 0u);
  (void)f->Close();
  (void)Env::Posix().Remove(path);
}

TEST(FaultyEnvTest, FsyncFailureIsSurfaced) {
  FaultyEnv env(Env::Posix(), MakeSpec("seed=8,fsync=1.0"));
  const std::string path = TestPath("faulty_fsync");
  std::unique_ptr<File> f;
  ASSERT_TRUE(env.NewFile(path, OpenMode::kWrite, &f).ok());
  ASSERT_TRUE(f->WriteFull(0, "data").ok());
  Status s = f->SyncWithRetry();
  EXPECT_TRUE(s.IsIoError());
  EXPECT_FALSE(s.transient());
  EXPECT_GT(env.counts().fsync_fail, 0u);
  (void)f->Close();
  (void)Env::Posix().Remove(path);
}

}  // namespace
}  // namespace met::io
