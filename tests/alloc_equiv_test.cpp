// Randomized equivalence tests: the word-parallel arbiter and allocator
// kernels must be grant-for-grant identical to the retained scalar
// reference implementations (tests/reference_alloc.*) over long request
// sequences. Priority state (rotating pointers, LRG matrices, per-cell VC
// pointers) evolves with every commit, so per-cycle identity here pins the
// full state machine, not just a single decision.
//
// Sizes cover 2..64 plus >64-input instances. MakeSwitchAllocator builds
// each kernel with one-word rows when its rows fit 64 bits and multi-word
// rows otherwise, so every scheme with a one-word kernel is compared at
// both widths: radix 70 (and the wider VIX geometries) take the multi-word
// rows, the paper's switches (radix 5-10, 6 VCs) the one-word ones.
//
// The request-view tests hand every scheme, packet chaining included, the
// words a router keeps, with its non-speculative, blocked-output and
// Becker masks applied in place.
//
// The idle-replay tests pin SwitchAllocator::AdvanceIdle, which lets a
// sleeping router skip its empty cycles: it must leave exactly the state
// of that many empty Allocate calls.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "alloc/augmenting_path.hpp"
#include "alloc/request_matrix.hpp"
#include "alloc/switch_allocator.hpp"
#include "arbiter/arbiter.hpp"
#include "reference_alloc.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/state_archive.hpp"

namespace vixnoc {
namespace {

TEST(BitsEquiv, FirstSetFromMatchesRotatingScan) {
  std::mt19937_64 rng(7);
  for (int n : {1, 2, 13, 63, 64, 65, 127, 130}) {
    BitWords words(n);
    std::vector<bool> scalar(n);
    for (int round = 0; round < 200; ++round) {
      for (int i = 0; i < n; ++i) {
        const bool bit = (rng() & 3) == 0;
        words.Assign(i, bit);
        scalar[i] = bit;
      }
      const int start = static_cast<int>(rng() % n);
      int expect = -1;
      for (int off = 0; off < n; ++off) {
        const int i = (start + off) % n;
        if (scalar[i]) {
          expect = i;
          break;
        }
      }
      EXPECT_EQ(words.FirstFrom(start), expect) << "n=" << n;
      EXPECT_EQ(words.First(),
                bits::FirstSetAtOrAfter(words.data(), words.word_count(), 0));
    }
  }
}

class ArbiterEquivTest : public ::testing::TestWithParam<ArbiterKind> {};

TEST_P(ArbiterEquivTest, RandomSequencesMatchScalarReference) {
  const ArbiterKind kind = GetParam();
  // 2..64 plus >64 sizes that need a second (and third) word.
  for (int n : {1, 2, 3, 5, 8, 17, 31, 32, 33, 63, 64, 65, 100, 130}) {
    auto fast = MakeArbiter(kind, n);
    auto ref = ref::MakeRefArbiter(kind, n);
    std::mt19937_64 rng(0x5eedu + static_cast<unsigned>(n));
    BitWords requests(n);
    std::vector<bool> scalar(n);
    for (int round = 0; round < 300; ++round) {
      for (int i = 0; i < n; ++i) {
        const bool bit = (rng() & 3) == 0;
        requests.Assign(i, bit);
        scalar[i] = bit;
      }
      const int got = fast->Pick(requests);
      const int expect = ref->Pick(scalar);
      ASSERT_EQ(got, expect) << "kind=" << static_cast<int>(kind)
                             << " n=" << n << " round=" << round;
      if (got >= 0) {
        fast->Commit(got);
        ref->Commit(got);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ArbiterEquivTest,
                         ::testing::Values(ArbiterKind::kRoundRobin,
                                           ArbiterKind::kMatrix));

// ---------------------------------------------------------------------------
// Allocator equivalence.

struct EquivCase {
  AllocScheme scheme;
  int radix;
  int vcs;
  ArbiterKind kind;
};

std::string CaseName(const ::testing::TestParamInfo<EquivCase>& info) {
  const EquivCase& c = info.param;
  std::string name = ToString(c.scheme) + "_r" + std::to_string(c.radix) +
                     "_v" + std::to_string(c.vcs) +
                     (c.kind == ArbiterKind::kMatrix ? "_matrix" : "_rr");
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return name;
}

/// Drives the word-parallel allocator and the scalar reference for `g`
/// through the same random request sequence; grants must match every cycle.
void ExpectMatchesReference(AllocScheme scheme, const SwitchGeometry& g,
                            ArbiterKind kind) {
  const int radix = g.num_inports;
  // Randomized schemes (SERENADE) must see the same seed on both sides;
  // the deterministic schemes ignore it.
  const std::uint64_t seed =
      0x5e7e9adeull ^ (static_cast<std::uint64_t>(radix) << 16);
  auto fast = MakeSwitchAllocator(scheme, g, kind, seed);
  auto ref = ref::MakeRefAllocator(scheme, g, kind, seed);
  ASSERT_NE(ref, nullptr);

  std::mt19937_64 rng(0xA110Cu ^ (static_cast<std::uint64_t>(radix) << 8) ^
                      static_cast<std::uint64_t>(scheme));
  std::vector<SaRequest> requests;
  std::vector<SaGrant> got;
  std::vector<SaGrant> expect;
  const int cycles = radix > 64 ? 60 : 200;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    requests.clear();
    // Each (in_port, vc) independently requests one random output with
    // probability 1/4 — the same shape the router's SA stage produces.
    for (PortId p = 0; p < g.num_inports; ++p) {
      for (VcId v = 0; v < g.num_vcs; ++v) {
        if ((rng() & 3) != 0) continue;
        requests.push_back(
            SaRequest{p, v, static_cast<PortId>(rng() % g.num_outports)});
      }
    }
    fast->Allocate(requests, &got);
    ref->Allocate(requests, &expect);
    ASSERT_EQ(got.size(), expect.size()) << "cycle=" << cycle;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].in_port, expect[i].in_port) << "cycle=" << cycle;
      ASSERT_EQ(got[i].vin, expect[i].vin) << "cycle=" << cycle;
      ASSERT_EQ(got[i].vc, expect[i].vc) << "cycle=" << cycle;
      ASSERT_EQ(got[i].out_port, expect[i].out_port) << "cycle=" << cycle;
    }
    ASSERT_TRUE(GrantsAreLegal(g, requests, got)) << "cycle=" << cycle;
  }
}

class AllocEquivTest : public ::testing::TestWithParam<EquivCase> {};

TEST_P(AllocEquivTest, RandomRequestMatricesMatchScalarReference) {
  const EquivCase& c = GetParam();
  SwitchGeometry g;
  g.num_inports = c.radix;
  g.num_outports = c.radix;
  g.num_vcs = c.vcs;
  g.num_vins = VirtualInputsForScheme(c.scheme, c.vcs);
  ExpectMatchesReference(c.scheme, g, c.kind);
}

std::vector<EquivCase> AllCases() {
  std::vector<EquivCase> cases;
  // Radixes spanning one-word and multi-word request rows; 70 > 64 guards
  // the multi-word paths (iSLIP grant rows, separable phase-2 rows, and
  // SPAROFLO output rows cross the word boundary much earlier, at
  // radix * vcs > 64).
  const int radixes[] = {2, 3, 5, 8, 16, 33, 64, 70};
  const AllocScheme schemes[] = {
      AllocScheme::kInputFirst, AllocScheme::kVix, AllocScheme::kVixIdeal,
      AllocScheme::kWavefront,  AllocScheme::kAugmentingPath,
      AllocScheme::kIslip,      AllocScheme::kSparoflo,
      AllocScheme::kSerenade,
  };
  for (int radix : radixes) {
    for (AllocScheme scheme : schemes) {
      // The >64 guard runs every scheme with a one-word kernel (all but
      // iSLIP and SPAROFLO, which keep it for their multi-word rows).
      if (radix > 64 && scheme == AllocScheme::kSparoflo) continue;
      cases.push_back(EquivCase{scheme, radix, 4, ArbiterKind::kRoundRobin});
    }
    // Matrix arbiters take a different Pick/Commit path; cover them on the
    // schemes that use pluggable arbiters.
    cases.push_back(
        EquivCase{AllocScheme::kInputFirst, radix, 4, ArbiterKind::kMatrix});
    cases.push_back(
        EquivCase{AllocScheme::kSparoflo, radix, 4, ArbiterKind::kMatrix});
  }
  // The paper's 6-VC switches: VIX splits them into 3-VC sub-groups, and
  // VIX-ideal's 60 crossbar inputs at radix 10 are the widest one-word
  // rows (radix 11 crosses into two words).
  for (int radix : {5, 8, 10, 11, 70}) {
    for (AllocScheme scheme :
         {AllocScheme::kInputFirst, AllocScheme::kVix, AllocScheme::kVixIdeal,
          AllocScheme::kWavefront, AllocScheme::kAugmentingPath,
          AllocScheme::kSerenade}) {
      cases.push_back(EquivCase{scheme, radix, 6, ArbiterKind::kRoundRobin});
    }
    cases.push_back(
        EquivCase{AllocScheme::kVix, radix, 6, ArbiterKind::kMatrix});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllocEquivTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

// VIX crossbars with k virtual inputs per port, both VC wirings: the
// contiguous sub-groups of the paper's Fig 2 and the interleaved vc % k.
struct WiringCase {
  int radix;
  int vcs;
  int vins;
  bool interleaved;
  ArbiterKind kind;
};

std::string WiringCaseName(const ::testing::TestParamInfo<WiringCase>& info) {
  const WiringCase& c = info.param;
  std::string name = "r";
  name += std::to_string(c.radix);
  name += "_v";
  name += std::to_string(c.vcs);
  name += "_k";
  name += std::to_string(c.vins);
  name += c.interleaved ? "_interleaved" : "_contiguous";
  name += c.kind == ArbiterKind::kMatrix ? "_matrix" : "_rr";
  return name;
}

class VixWiringEquivTest : public ::testing::TestWithParam<WiringCase> {};

TEST_P(VixWiringEquivTest, RandomRequestMatricesMatchScalarReference) {
  const WiringCase& c = GetParam();
  SwitchGeometry g;
  g.num_inports = c.radix;
  g.num_outports = c.radix;
  g.num_vcs = c.vcs;
  g.num_vins = c.vins;
  g.interleaved_vins = c.interleaved;
  ExpectMatchesReference(AllocScheme::kVix, g, c.kind);
}

std::vector<WiringCase> AllWiringCases() {
  std::vector<WiringCase> cases;
  // Radix 22 with k = 3 has 66 crossbar inputs: the multi-word rows.
  for (int radix : {5, 10, 22}) {
    for (int vins : {2, 3}) {
      for (bool interleaved : {false, true}) {
        cases.push_back(
            WiringCase{radix, 6, vins, interleaved, ArbiterKind::kRoundRobin});
      }
    }
    cases.push_back(WiringCase{radix, 6, 2, true, ArbiterKind::kMatrix});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Wirings, VixWiringEquivTest,
                         ::testing::ValuesIn(AllWiringCases()),
                         WiringCaseName);

// ---------------------------------------------------------------------------
// The router's hand-over: a SwitchRequestView over the words a router keeps
// (SA candidates, credit stalls, this cycle's VA grants, blocked outputs)
// with its masks applied in place, against the reference run on the
// request list the same rules give when applied one input VC at a time.

struct ViewCase {
  AllocScheme scheme;
  int radix;
  bool speculative;   ///< false: this cycle's VA grants may not request
  bool masked;        ///< blocked outputs, and Becker's rule if speculative
};

std::string ViewCaseName(const ::testing::TestParamInfo<ViewCase>& info) {
  const ViewCase& c = info.param;
  std::string name = ToString(c.scheme) + "_r" + std::to_string(c.radix) +
                     (c.speculative ? "_spec" : "_nonspec") +
                     (c.masked ? "_masked" : "");
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return name;
}

class RequestViewEquivTest : public ::testing::TestWithParam<ViewCase> {};

TEST_P(RequestViewEquivTest, MaskedRouterWordsMatchScalarReference) {
  const ViewCase& c = GetParam();
  SwitchGeometry g;
  g.num_inports = c.radix;
  g.num_outports = c.radix;
  g.num_vcs = c.scheme == AllocScheme::kVix ? 6 : 4;
  g.num_vins = VirtualInputsForScheme(c.scheme, g.num_vcs);
  g.interleaved_vins = c.radix % 2 == 1;
  const std::uint64_t seed = 0x71e5eedull + static_cast<std::uint64_t>(c.radix);
  auto fast = MakeSwitchAllocator(c.scheme, g, ArbiterKind::kRoundRobin, seed);
  auto ref = ref::MakeRefAllocator(c.scheme, g, ArbiterKind::kRoundRobin, seed);
  ASSERT_NE(ref, nullptr);

  const int n = c.radix * g.num_vcs;
  BitWords cand(n);
  BitWords stalled(n);
  BitWords just(n);
  BitWords ready(n);
  BitWords blocked(c.radix);
  BitWords wants(c.radix);
  std::vector<PortId> out_port(static_cast<std::size_t>(n));
  std::mt19937_64 rng(0xbecce7ull ^ (static_cast<std::uint64_t>(c.radix) << 8) ^
                      static_cast<std::uint64_t>(c.scheme));
  std::vector<SaRequest> list;
  std::vector<SaGrant> got;
  std::vector<SaGrant> expect;
  const int cycles = c.radix > 64 ? 40 : 120;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    for (int idx = 0; idx < n; ++idx) {
      cand.Assign(idx, rng() % 3 == 0);
      stalled.Assign(idx, rng() % 4 == 0);
      just.Assign(idx, rng() % 4 == 0);
      out_port[idx] = static_cast<PortId>(rng() % c.radix);
    }
    for (PortId o = 0; o < c.radix; ++o) {
      blocked.Assign(o, c.masked && rng() % 5 == 0);
    }

    // The router's words: candidates with a credit, then the masks.
    for (int w = 0; w < ready.word_count(); ++w) {
      ready.data()[w] = cand.data()[w] & ~stalled.data()[w] &
                        (c.speculative ? ~std::uint64_t{0} : ~just.data()[w]);
    }
    const BitView ready_bits(ready.data(), n);
    if (c.masked) {
      DropRequestsTo(ready_bits, out_port.data(), blocked);
      if (c.speculative) {
        DropSpeculativeConflicts(ready_bits, out_port.data(), just,
                                 BitView(wants.data(), c.radix));
      }
    }
    const SwitchRequestView view{ready.data(), out_port.data(), c.radix,
                                 g.num_vcs};

    // The same rules, one input VC at a time.
    list.clear();
    for (PortId p = 0; p < c.radix; ++p) {
      for (VcId v = 0; v < g.num_vcs; ++v) {
        const int idx = p * g.num_vcs + v;
        if (!cand.Test(idx) || stalled.Test(idx)) continue;
        if (!c.speculative && just.Test(idx)) continue;
        if (c.masked && blocked.Test(out_port[idx])) continue;
        list.push_back(SaRequest{p, v, out_port[idx]});
      }
    }
    if (c.masked && c.speculative) {
      std::vector<bool> nonspec_wants(static_cast<std::size_t>(c.radix));
      for (const SaRequest& r : list) {
        if (!just.Test(r.in_port * g.num_vcs + r.vc)) {
          nonspec_wants[r.out_port] = true;
        }
      }
      std::erase_if(list, [&](const SaRequest& r) {
        return just.Test(r.in_port * g.num_vcs + r.vc) &&
               nonspec_wants[r.out_port];
      });
    }
    ASSERT_EQ(view.Count(), static_cast<int>(list.size())) << cycle;

    fast->Allocate(view, &got);
    ref->Allocate(list, &expect);
    ASSERT_EQ(got.size(), expect.size()) << "cycle=" << cycle;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].in_port, expect[i].in_port) << "cycle=" << cycle;
      ASSERT_EQ(got[i].vin, expect[i].vin) << "cycle=" << cycle;
      ASSERT_EQ(got[i].vc, expect[i].vc) << "cycle=" << cycle;
      ASSERT_EQ(got[i].out_port, expect[i].out_port) << "cycle=" << cycle;
    }
    ASSERT_TRUE(GrantsAreLegal(g, view, got)) << "cycle=" << cycle;
  }
}

std::vector<ViewCase> AllViewCases() {
  std::vector<ViewCase> cases;
  for (const int radix : {2, 3, 5, 8, 16, 33, 64, 70}) {
    for (const AllocScheme scheme :
         {AllocScheme::kInputFirst, AllocScheme::kVix, AllocScheme::kVixIdeal,
          AllocScheme::kWavefront, AllocScheme::kAugmentingPath,
          AllocScheme::kPacketChaining, AllocScheme::kIslip,
          AllocScheme::kSparoflo, AllocScheme::kSerenade}) {
      cases.push_back(ViewCase{scheme, radix, true, false});
      cases.push_back(ViewCase{scheme, radix, false, true});
      cases.push_back(ViewCase{scheme, radix, true, true});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Masks, RequestViewEquivTest,
                         ::testing::ValuesIn(AllViewCases()), ViewCaseName);

// ---------------------------------------------------------------------------
// Idle replay: AdvanceIdle(n) == n empty Allocate calls.

struct IdleCase {
  AllocScheme scheme;
  int radix;
  bool ap_rotate_vcs;  ///< false: the stateless-VC AP ablation
};

std::string IdleCaseName(const ::testing::TestParamInfo<IdleCase>& info) {
  const IdleCase& c = info.param;
  std::string name = ToString(c.scheme) + "_r" + std::to_string(c.radix) +
                     (c.ap_rotate_vcs ? "" : "_norotate");
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return name;
}

std::unique_ptr<SwitchAllocator> MakeIdleCaseAllocator(const IdleCase& c) {
  SwitchGeometry g;
  g.num_inports = c.radix;
  g.num_outports = c.radix;
  g.num_vcs = 4;
  g.num_vins = VirtualInputsForScheme(c.scheme, g.num_vcs);
  if (!c.ap_rotate_vcs) {
    return MakeAugmentingPathAllocator(g, false);
  }
  return MakeSwitchAllocator(c.scheme, g, ArbiterKind::kRoundRobin,
                             0x1d1eull + static_cast<std::uint64_t>(c.radix));
}

std::string StateBytes(const SwitchAllocator& alloc) {
  SnapshotWriter w;
  w.BeginSection("alloc");
  StateArchive::Save(w, alloc);
  w.EndSection();
  return w.Finish(0);
}

/// Makes `n` empty Allocate calls. The allocator is a deterministic state
/// machine and its Visit stores all of its state (the checkpoint
/// contract), so once a state repeats the remaining calls skip whole
/// periods — keeping n = 10^6 affordable under the sanitizers.
void AllocateEmpty(SwitchAllocator* alloc, std::uint64_t n) {
  const std::vector<SaRequest> none;
  std::vector<SaGrant> grants;
  std::vector<std::string> seen = {StateBytes(*alloc)};
  for (std::uint64_t i = 1; i <= n; ++i) {
    alloc->Allocate(none, &grants);
    ASSERT_TRUE(grants.empty());
    std::string state = StateBytes(*alloc);
    const auto it = std::find(seen.begin(), seen.end(), state);
    if (it != seen.end()) {
      const std::uint64_t period =
          i - static_cast<std::uint64_t>(it - seen.begin());
      for (std::uint64_t r = (n - i) % period; r > 0; --r) {
        alloc->Allocate(none, &grants);
      }
      return;
    }
    seen.push_back(std::move(state));
  }
}

std::vector<SaRequest> RandomRequests(const SwitchAllocator& alloc,
                                      std::mt19937_64& rng) {
  const SwitchGeometry& g = alloc.geometry();
  std::vector<SaRequest> requests;
  for (PortId p = 0; p < g.num_inports; ++p) {
    for (VcId v = 0; v < g.num_vcs; ++v) {
      if ((rng() & 3) != 0) continue;
      requests.push_back(
          SaRequest{p, v, static_cast<PortId>(rng() % g.num_outports)});
    }
  }
  if (requests.empty()) requests.push_back(SaRequest{0, 0, 0});
  return requests;
}

class AdvanceIdleTest : public ::testing::TestWithParam<IdleCase> {};

TEST_P(AdvanceIdleTest, EqualsEmptyAllocateCalls) {
  const IdleCase& c = GetParam();
  for (const std::uint64_t n :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2},
        std::uint64_t{3}, std::uint64_t{64}, std::uint64_t{1'000'000}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    auto skipped = MakeIdleCaseAllocator(c);
    auto stepped = MakeIdleCaseAllocator(c);
    // A random mid-run state: the same non-empty history on both.
    std::mt19937_64 rng(0x1d1e5eedull ^ (static_cast<std::uint64_t>(c.radix)
                                         << 12) ^
                        n);
    std::vector<SaGrant> a;
    std::vector<SaGrant> b;
    const int history = 1 + static_cast<int>(rng() % 40);
    for (int cycle = 0; cycle < history; ++cycle) {
      const std::vector<SaRequest> requests = RandomRequests(*skipped, rng);
      skipped->Allocate(requests, &a);
      stepped->Allocate(requests, &b);
    }

    skipped->AdvanceIdle(n);
    AllocateEmpty(stepped.get(), n);
    ASSERT_EQ(StateBytes(*skipped), StateBytes(*stepped));

    for (int cycle = 0; cycle < 50; ++cycle) {
      const std::vector<SaRequest> requests = RandomRequests(*skipped, rng);
      skipped->Allocate(requests, &a);
      stepped->Allocate(requests, &b);
      ASSERT_EQ(a.size(), b.size()) << "cycle=" << cycle;
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].in_port, b[i].in_port) << "cycle=" << cycle;
        ASSERT_EQ(a[i].vc, b[i].vc) << "cycle=" << cycle;
        ASSERT_EQ(a[i].out_port, b[i].out_port) << "cycle=" << cycle;
      }
    }
  }
}

std::vector<IdleCase> AllIdleCases() {
  std::vector<IdleCase> cases;
  for (const int radix : {2, 3, 5, 8, 16, 33, 64, 70}) {
    for (const AllocScheme scheme :
         {AllocScheme::kInputFirst, AllocScheme::kVix, AllocScheme::kVixIdeal,
          AllocScheme::kWavefront, AllocScheme::kAugmentingPath,
          AllocScheme::kPacketChaining, AllocScheme::kIslip,
          AllocScheme::kSparoflo, AllocScheme::kSerenade}) {
      cases.push_back(IdleCase{scheme, radix, true});
    }
    cases.push_back(IdleCase{AllocScheme::kAugmentingPath, radix, false});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, AdvanceIdleTest,
                         ::testing::ValuesIn(AllIdleCases()), IdleCaseName);

}  // namespace
}  // namespace vixnoc
