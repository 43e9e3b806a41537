// Juliet suite generator + scoring tests (the machinery behind Fig. 6).
#include <gtest/gtest.h>

#include "compiler/driver.hpp"
#include "juliet/runner.hpp"

namespace {

using namespace hwst;
using compiler::Scheme;
using TrapKind = ::hwst::hwst::TrapKind;
namespace jl = ::hwst::juliet;

TEST(JulietSpecs, PaperTotals)
{
    common::u64 spatial = 0, temporal = 0;
    for (const auto& [cwe, count] : jl::cwe_counts()) {
        (jl::is_spatial(cwe) ? spatial : temporal) += count;
    }
    EXPECT_EQ(spatial, 7074u);  // paper §4
    EXPECT_EQ(temporal, 1292u); // paper §4
    EXPECT_EQ(jl::all_bad_cases().size(), 8366u);
}

TEST(JulietSpecs, Deterministic)
{
    const auto a = jl::make_spec(jl::Cwe::C122, 123, true);
    const auto b = jl::make_spec(jl::Cwe::C122, 123, true);
    EXPECT_EQ(a.buf_size, b.buf_size);
    EXPECT_EQ(a.over_bytes, b.over_bytes);
    EXPECT_EQ(a.distance, b.distance);
    EXPECT_EQ(a.provenance, b.provenance);
    EXPECT_EQ(a.id(), "CWE122_123_bad");
}

TEST(JulietSpecs, SubGranulePopulationMatchesPaperGap)
{
    // The HWST128-miss population should be ~0.86 % of 8366 (Fig. 6).
    unsigned sub = 0;
    for (common::u32 i = 0; i < 1556; ++i) {
        const auto s = jl::make_spec(jl::Cwe::C122, i, true);
        const auto slack = (8 - s.buf_size % 8) % 8;
        if (s.provenance == jl::Provenance::Tracked && slack > 0 &&
            s.over_bytes <= slack)
            ++sub;
    }
    EXPECT_GT(sub, 40u);
    EXPECT_LT(sub, 110u);
}

TEST(JulietScoring, PerSchemeDetectionRules)
{
    using jl::counts_as_detection;
    // libc aborts are printed diagnostics for everyone.
    for (const Scheme s : {Scheme::Gcc, Scheme::Asan, Scheme::Sbcets,
                           Scheme::Hwst128Tchk}) {
        EXPECT_TRUE(counts_as_detection(s, TrapKind::LibcAbort));
    }
    // A silent SEGV is a report only under ASAN's interceptor.
    EXPECT_FALSE(counts_as_detection(Scheme::Gcc, TrapKind::AccessFault));
    EXPECT_TRUE(counts_as_detection(Scheme::Asan, TrapKind::AccessFault));
    EXPECT_FALSE(
        counts_as_detection(Scheme::Sbcets, TrapKind::AccessFault));
    // Each scheme recognises its own violation kinds.
    EXPECT_TRUE(counts_as_detection(Scheme::Gcc,
                                    TrapKind::StackGuardViolation));
    EXPECT_TRUE(
        counts_as_detection(Scheme::Sbcets, TrapKind::SoftSpatialViolation));
    EXPECT_TRUE(counts_as_detection(Scheme::Hwst128Tchk,
                                    TrapKind::TemporalViolation));
    EXPECT_FALSE(counts_as_detection(Scheme::Gcc, TrapKind::AsanReport));
    EXPECT_FALSE(counts_as_detection(Scheme::None, TrapKind::FuelExhausted));
}

TEST(JulietMechanisms, Cwe476TemporalKeyZero)
{
    const auto spec = jl::make_spec(jl::Cwe::C476, 3, true);
    EXPECT_EQ(jl::run_case(Scheme::Sbcets, spec),
              TrapKind::SoftTemporalViolation);
    EXPECT_EQ(jl::run_case(Scheme::Hwst128Tchk, spec),
              TrapKind::TemporalViolation);
}

TEST(JulietMechanisms, Cwe690OnlyPointerSchemesCatch)
{
    const auto spec = jl::make_spec(jl::Cwe::C690, 5, true);
    EXPECT_EQ(jl::run_case(Scheme::Gcc, spec), TrapKind::None);
    EXPECT_EQ(jl::run_case(Scheme::Asan, spec), TrapKind::None);
    EXPECT_NE(jl::run_case(Scheme::Sbcets, spec), TrapKind::None);
    EXPECT_NE(jl::run_case(Scheme::Hwst128Tchk, spec), TrapKind::None);
}

TEST(JulietMechanisms, Cwe415EveryoneReports)
{
    const auto spec = jl::make_spec(jl::Cwe::C415, 7, true);
    for (const Scheme s : {Scheme::Gcc, Scheme::Asan, Scheme::Sbcets,
                           Scheme::Hwst128Tchk}) {
        EXPECT_TRUE(
            jl::counts_as_detection(s, jl::run_case(s, spec)))
            << compiler::scheme_name(s);
    }
}

TEST(JulietGoodCases, NoFalsePositivesOnSample)
{
    const auto good = jl::good_cases(97); // ~90 cases
    for (const Scheme s : {Scheme::Gcc, Scheme::Asan, Scheme::Sbcets,
                           Scheme::Hwst128Tchk}) {
        for (const auto& spec : good) {
            const auto trap = jl::run_case(s, spec);
            EXPECT_FALSE(jl::counts_as_detection(s, trap))
                << spec.id() << " under " << compiler::scheme_name(s)
                << ": " << trap_name(trap);
        }
    }
}

TEST(JulietExtended, InterproceduralSinkStillCaught)
{
    // Metadata reaches the callee: via the shadow arg stack (SBCETS)
    // and SRF propagation through a0 (HWST128).
    const auto bad = jl::build_interproc_case(true);
    EXPECT_EQ(compiler::run(bad, Scheme::Sbcets).trap.kind,
              TrapKind::SoftSpatialViolation);
    EXPECT_EQ(compiler::run(bad, Scheme::Hwst128Tchk).trap.kind,
              TrapKind::SpatialViolation);
    EXPECT_EQ(compiler::run(bad, Scheme::Gcc).trap.kind, TrapKind::None);
    const auto good = jl::build_interproc_case(false);
    for (const Scheme s : {Scheme::Sbcets, Scheme::Hwst128Tchk}) {
        EXPECT_EQ(compiler::run(good, s).trap.kind, TrapKind::None)
            << compiler::scheme_name(s);
    }
}

TEST(JulietExtended, IntraObjectOverflowMissedByDesign)
{
    // Allocation-granularity bounds cannot see a field overrun inside
    // the object — the documented limitation of the SoftBound family
    // (and of redzone-based ASAN). The corruption is real: the sibling
    // field changes value.
    const auto bad = jl::build_intra_object_case(true);
    for (const Scheme s : {Scheme::Gcc, Scheme::Asan, Scheme::Sbcets,
                           Scheme::Hwst128Tchk}) {
        const auto r = compiler::run(bad, s);
        EXPECT_TRUE(r.ok()) << compiler::scheme_name(s);
        EXPECT_EQ(r.exit_code & 0xFF, 0x42)
            << "sibling field silently corrupted under "
            << compiler::scheme_name(s);
    }
    const auto good = jl::build_intra_object_case(false);
    EXPECT_EQ(compiler::run(good, Scheme::Hwst128Tchk).exit_code, 9999);
}

TEST(JulietCoverage, StrideSampleMatchesPaperShape)
{
    const auto cases = jl::all_bad_cases();
    const jl::RunOptions opts{23};
    const auto gcc = jl::run_suite(Scheme::Gcc, cases, opts);
    const auto asan = jl::run_suite(Scheme::Asan, cases, opts);
    const auto sb = jl::run_suite(Scheme::Sbcets, cases, opts);
    const auto hw = jl::run_suite(Scheme::Hwst128Tchk, cases, opts);

    // Fig. 6 ordering: GCC << ASAN < HWST128 <= SBCETS.
    EXPECT_LT(gcc.pct(), 20.0);
    EXPECT_GT(gcc.pct(), 5.0);
    EXPECT_LT(asan.pct(), sb.pct());
    EXPECT_GT(asan.pct(), 45.0);
    EXPECT_LE(hw.pct(), sb.pct());
    EXPECT_GT(hw.pct(), 55.0);
    EXPECT_LT(sb.pct(), 75.0);
    // ASAN's CWE690 blind spot (paper: "ASAN cannot detect any").
    EXPECT_EQ(asan.per_cwe.at(jl::Cwe::C690).detected, 0u);
    EXPECT_GT(sb.per_cwe.at(jl::Cwe::C690).pct(), 90.0);
}

} // namespace
