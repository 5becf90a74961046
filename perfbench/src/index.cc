// `metperf index`: the in-process structure workload. 10M random 64-bit
// keys in an FST, a SuRF-Hash4 and (traced runs) an ART control, plus a 5M
// synthetic-email FST. Queries are uniform: present-key point lookups
// (scalar; traced runs add LookupBatch at width 64), LowerBound at random
// points, SuRF probes of which half are absent, and email lookups.
//
// Each measurement is a fixed number of calls per pass: one warm-up pass,
// then kPasses timed passes whose best rate is reported. Everything here
// is single-threaded and CPU-bound, so it is timed with the thread's CPU
// clock (set-up included): on a shared virtual machine the wall clock also
// counts time the host gave to someone else. Every answer
// is checked against the sorted key array (the oracle), inside the timed
// loop for point lookups and probes and against answers precomputed with
// std::lower_bound for LowerBound.
//
// Traced runs repeat each loop with one span per 1024 calls, build the ART
// control, and time bitvec rank/select on a bit vector the size of the int
// FST's LOUDS-Sparse.
#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "art/art.h"
#include "bitvec/bitvector.h"
#include "bitvec/rank.h"
#include "bitvec/select.h"
#include "common.h"
#include "fst/fst.h"
#include "keys/keygen.h"
#include "surf/surf.h"

namespace perfbench {
namespace {

volatile uint64_t g_sink;

constexpr size_t kSpan = 1024;  // calls per trace span
constexpr size_t kBatch = 64;
constexpr int kPasses = 7;  // timed passes per measurement, after one warm-up

/// Rate of `calls` calls per pass: warm-up, then kPasses timed passes,
/// best calls per CPU-second. `pass()` runs the calls once. Outside
/// interference only slows a pass down, so the fastest pass is the one
/// closest to the code's own speed.
template <typename Pass>
double BestRate(size_t calls, Pass&& pass) {
  pass();
  double best = 0;
  for (int p = 0; p < kPasses; ++p) {
    uint64_t a = ThreadCpuNs();
    pass();
    best = std::max(best, calls / ((ThreadCpuNs() - a) / 1e9));
  }
  return best;
}

/// Traced variant: one span per `per_span` calls of `one(i)`; returns the
/// median span's ns per call and, through *rate, the pass's calls/s.
template <typename One>
double SpanNs(size_t calls, One&& one, double* rate, size_t per_span = kSpan) {
  std::vector<double> spans;
  spans.reserve(calls / per_span + 1);
  uint64_t start = ThreadCpuNs();
  for (size_t i0 = 0; i0 < calls; i0 += per_span) {
    uint64_t a = ThreadCpuNs();
    size_t end = std::min(calls, i0 + per_span);
    for (size_t i = i0; i < end; ++i) one(i);
    spans.push_back(static_cast<double>(ThreadCpuNs() - a) / (end - i0));
  }
  *rate = calls / ((ThreadCpuNs() - start) / 1e9);
  return Median(spans);
}

}  // namespace

int IndexMain(int argc, char** argv) {
  const uint64_t seed = FlagU64(argc, argv, "--seed", 1);
  const size_t n = FlagU64(argc, argv, "--keys", 10000000);
  const size_t n_email = FlagU64(argc, argv, "--emails", n / 2);
  const size_t q = FlagU64(argc, argv, "--queries", 200000);
  const bool trace = FlagU64(argc, argv, "--trace", 0) != 0;
  // Self-check hook: corrupt one expected answer so the checker must trip.
  const bool inject = FlagU64(argc, argv, "--inject-wrong", 0) != 0;

  // ---- set-up: key generation plus builds --------------------------------
  uint64_t s0 = ThreadCpuNs();
  std::vector<uint64_t> ints = met::GenRandomInts(n, StreamSeed(seed, 0x1de));
  met::SortUnique(&ints);
  std::vector<std::string> keys = met::ToStringKeys(ints);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < values.size(); ++i) values[i] = i + 1;
  met::Fst fst;
  uint64_t b0 = ThreadCpuNs();
  fst.Build(keys, values);
  const double fst_build_s = (ThreadCpuNs() - b0) / 1e9;
  met::Surf surf;
  surf.Build(keys, met::SurfConfig::Hash(4));
  std::vector<std::string> emails = met::GenEmails(n_email, StreamSeed(seed, 0xe3a1));
  met::SortUnique(&emails);
  std::vector<uint64_t> evalues(emails.size());
  for (size_t i = 0; i < evalues.size(); ++i) evalues[i] = i + 1;
  met::Fst efst;
  efst.Build(emails, evalues);
  double setup_s = (ThreadCpuNs() - s0) / 1e9;

  // ---- queries and their oracle answers (untimed) ------------------------
  Rng rng(StreamSeed(seed, 0x9e));
  std::vector<uint32_t> qi(q), qe(q);
  std::vector<std::string_view> qk(q), qem(q);
  for (size_t i = 0; i < q; ++i) {
    qi[i] = static_cast<uint32_t>(rng.Below(keys.size()));
    qk[i] = keys[qi[i]];
    qe[i] = static_cast<uint32_t>(rng.Below(emails.size()));
    qem[i] = emails[qe[i]];
  }
  // LowerBound targets: random points; expected = std::lower_bound.
  std::vector<std::string> seek_keys(q);
  std::vector<size_t> seek_expect(q);
  for (size_t i = 0; i < q; ++i) {
    uint64_t p = rng.Next();
    seek_keys[i] = met::Uint64ToKey(p);
    seek_expect[i] = std::lower_bound(ints.begin(), ints.end(), p) - ints.begin();
  }
  // SuRF probes: even slots present, odd slots absent.
  std::vector<std::string> probe_keys(q);
  std::vector<uint8_t> probe_present(q);
  for (size_t i = 0; i < q; ++i) {
    if (i % 2 == 0) {
      probe_keys[i] = keys[rng.Below(keys.size())];
      probe_present[i] = 1;
    } else {
      uint64_t p;
      do {
        p = rng.Next();
      } while (std::binary_search(ints.begin(), ints.end(), p));
      probe_keys[i] = met::Uint64ToKey(p);
    }
  }
  if (inject) qi[q / 2] ^= 1;  // one lookup now expects a neighbour's value

  uint64_t wrong = 0, false_neg = 0, false_pos = 0;
  uint64_t attempted = 0;

  // ---- timed passes -------------------------------------------------------
  auto lookup_one = [&](size_t i) {
    uint64_t v = 0;
    if (!fst.Lookup(qk[i], &v) || v != qi[i] + 1) ++wrong;
  };
  std::vector<met::LookupResult> out(kBatch);
  auto batch_one = [&](size_t b) {
    size_t i0 = b * kBatch, cnt = std::min(kBatch, q - i0);
    fst.LookupBatch(&qk[i0], cnt, out.data());
    for (size_t j = 0; j < cnt; ++j)
      if (!out[j].found || out[j].value != qi[i0 + j] + 1) ++wrong;
  };
  auto seek_one = [&](size_t i) {
    met::Fst::Iterator it = fst.LowerBound(seek_keys[i]);
    size_t e = seek_expect[i];
    if (e == keys.size() ? it.Valid() : (!it.Valid() || it.key() != keys[e]))
      ++wrong;
  };
  auto probe_one = [&](size_t i) {
    bool may = surf.MayContain(probe_keys[i]);
    if (probe_present[i]) {
      if (!may) ++false_neg;
    } else {
      false_pos += may;
    }
  };
  auto email_one = [&](size_t i) {
    uint64_t v = 0;
    if (!efst.Lookup(qem[i], &v) || v != qe[i] + 1) ++wrong;
  };
  const size_t nbatches = (q + kBatch - 1) / kBatch;
  auto loop = [](size_t calls, auto& one) {
    return [calls, &one] {
      for (size_t i = 0; i < calls; ++i) one(i);
    };
  };

  double lookup_ops = BestRate(q, loop(q, lookup_one));
  double seek_ops = BestRate(q, loop(q, seek_one));
  double probe_ops = BestRate(q, loop(q, probe_one));
  // Every pass, warm-up included, probes the same q / 2 absent keys.
  const double fpr = static_cast<double>(false_pos) / (kPasses + 1) / (q / 2);
  double email_ops = BestRate(q, loop(q, email_one));
  attempted += static_cast<uint64_t>(q) * (kPasses + 1) * 4;

  JsonOut j;
  j.Num("setup_s", setup_s)
      .Num("fst_build_s", fst_build_s)
      .Num("keys", static_cast<double>(keys.size()))
      .Num("emails", static_cast<double>(emails.size()))
      .Num("fst_lookup_ops", lookup_ops)
      .Num("fst_seek_ops", seek_ops)
      .Num("surf_probe_ops", probe_ops)
      .Num("email_lookup_ops", email_ops)
      .Num("fst_bytes", static_cast<double>(fst.MemoryBytes()))
      .Num("surf_fpr", fpr);

  if (trace) {
    // The traced lookup loop gets as many passes as the untraced one, so
    // trace.overhead_frac compares best pass with best pass.
    double rate = 0, best = 0, lookup_ns = 0;
    for (int p = 0; p < kPasses; ++p) {
      double ns = SpanNs(q, lookup_one, &rate);
      if (rate > best) best = rate, lookup_ns = ns;
    }
    j.Num("fst.lookup_ns", lookup_ns);
    j.Num("fst.lookup_traced_ops", best);
    j.Num("fst.batch64_ns_per_key",
          SpanNs(nbatches, batch_one, &rate, kSpan / kBatch) / kBatch);
    j.Num("fst.seek_ns", SpanNs(q, seek_one, &rate));
    j.Num("fst.email_lookup_ns", SpanNs(q, email_one, &rate));
    attempted += (3ull + kPasses) * q;
    j.Num("surf.bits_per_key", surf.MemoryBytes() * 8.0 / keys.size());
    j.Num("fst.email_bytes_per_key",
          static_cast<double>(efst.MemoryBytes()) / emails.size());
    {
      uint64_t a0 = ThreadCpuNs();
      met::Art art;
      for (size_t i = 0; i < keys.size(); ++i) art.Insert(keys[i], values[i]);
      j.Num("art.build_s", (ThreadCpuNs() - a0) / 1e9);
      auto art_one = [&](size_t i) {
        uint64_t v = 0;
        if (!art.Lookup(qk[i], &v) || v != qi[i] + 1) ++wrong;
      };
      for (size_t i = 0; i < q; ++i) art_one(i);  // warm-up
      j.Num("art.lookup_ns", SpanNs(q, art_one, &rate));
      attempted += 2ull * q;
    }
    {
      // A bit vector the length of the int FST's LOUDS-Sparse label
      // sequence, half its bits set, with FST's rank block and select
      // sampling rate.
      size_t bits = keys.size();
      const met::MemoryBreakdown fst_parts = fst.Breakdown();
      if (const auto* sp = fst_parts.Find("louds_sparse"))
        if (const auto* lb = sp->Find("labels")) bits = lb->TotalBytes();
      met::BitVector bv(bits);
      Rng br(StreamSeed(seed, 0xb17));
      size_t ones = 0;
      for (size_t i = 0; i < bits; ++i)
        if (br.Next() & 1) {
          bv.Set(i);
          ++ones;
        }
      met::RankSupport rank(&bv, 512);
      met::SelectSupport select(&bv, 64);
      std::vector<size_t> pos(q), rk(q);
      for (size_t i = 0; i < q; ++i) {
        pos[i] = br.Below(bits);
        rk[i] = 1 + br.Below(ones);
      }
      uint64_t sink = 0;
      auto rank_one = [&](size_t i) { sink += rank.Rank1(pos[i]); };
      auto select_one = [&](size_t i) { sink += select.Select1(rk[i]); };
      j.Num("bitvec.bits", static_cast<double>(bits));
      j.Num("bitvec.rank_ns", SpanNs(q, rank_one, &rate));
      j.Num("bitvec.select_ns", SpanNs(q, select_one, &rate));
      // Spot-check rank/select against each other.
      for (size_t i = 0; i < 1000; ++i)
        if (rank.Rank1(select.Select1(rk[i])) != rk[i]) ++wrong;
      g_sink = sink;
    }
  }
  j.Num("wrong", static_cast<double>(wrong))
      .Num("surf_false_negatives", static_cast<double>(false_neg))
      .Num("attempted", static_cast<double>(attempted));
  std::printf("RESULT %s\n", j.Done().c_str());
  return 0;
}

}  // namespace perfbench
