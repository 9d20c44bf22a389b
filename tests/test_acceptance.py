"""Acceptance suite: ten numbered end-to-end criteria, one printed
pass/fail line each.

Lines are printed with capture disabled so they appear in the live pytest
output for passing and failing criteria alike. Every tolerance is pinned
in this file; nothing is tuned at runtime.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from shallowcut import (
    DiGraph,
    ExactReachabilityOracle,
    ExactTransitiveOracle,
    GeneratorSpec,
    OracleSizeLaw,
    ReductionConfig,
    dist_all_pairs,
    estimate_removal_probability,
    generate,
    hop_limited_dist,
    low_diameter_decomposition,
    phase_sigma,
    reduce_clustered_dag,
    reduce_hopset,
    reduce_shortcut,
    scaled_length,
    scc_topological,
    verify_hopset,
    verify_ldd,
    verify_shortcut,
)
from shallowcut.fileio import write_edge_set, write_weighted_edge_set


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_output(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(num: int, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[ACCEPTANCE {num:2d}] {status}  {detail}".rstrip()
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


def unit_path(n):
    return DiGraph.from_edges(n, [(i, i + 1, 1) for i in range(n - 1)])


def random_graph(rng, n_max=300, m_max=1200, big_n=16):
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(0, m_max + 1))
    t = rng.integers(0, n, size=m)
    h = (t + 1 + rng.integers(0, n - 1, size=m)) % n
    w = rng.integers(1, big_n + 1, size=m)
    return DiGraph.from_arrays(n, t, h, w, big_n)


class _RecordingOracle:
    """Delegates to an inner oracle and logs (input edges, output size)."""

    def __init__(self, inner):
        self.inner = inner
        self.size_law = inner.size_law
        self.calls: list[tuple[int, int]] = []

    def build(self, call, rng):
        out = self.inner.build(call, rng)
        self.calls.append((call.graph.edge_count, len(out)))
        return out


def test_criterion_01_ldd_contract():
    """50 random graphs x 5 seeds: partition, topological order, and weak
    diameter <= d hold exactly. Budget: 60 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    failures = 0
    for _ in range(50):
        g = random_graph(rng)
        d = int(rng.integers(4, 65))
        for seed in range(5):
            result = low_diameter_decomposition(g, d, np.random.SeedSequence(seed))
            if not verify_ldd(g, d, result).passed:
                failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 60
    _report(1, ok, f"failures={failures}/250 elapsed={elapsed:.1f}s (<60s)")
    assert failures == 0
    assert elapsed < 60


def test_criterion_02_ldd_removal_probability():
    """Unit path n=512, d in {32,64,128}, 400 trials each: max per-edge
    frequency <= C*log2(n)^2/d with C=2, and the median over edges strictly
    decreases at both doublings of d. Budget: 5 min."""
    t0 = time.perf_counter()
    C = 2  # calibrated once; spec ceiling is 64
    n = 512
    g = unit_path(n)
    log2n_sq = np.log2(n) ** 2
    medians, max_ok = [], True
    details = []
    for d in (32, 64, 128):
        freq = estimate_removal_probability(g, d, 400, 0)
        bound = C * log2n_sq / d
        if freq.max() > bound:
            max_ok = False
        medians.append(float(np.median(freq)))
        details.append(f"d={d}:max={freq.max():.3f}/{bound:.2f},med={medians[-1]:.3f}")
    strict = medians[0] > medians[1] > medians[2]
    elapsed = time.perf_counter() - t0
    ok = max_ok and strict and elapsed < 300
    _report(2, ok, f"{' '.join(details)} elapsed={elapsed:.0f}s (<300s)")
    assert max_ok
    assert strict
    assert elapsed < 300


def _run_criterion_3():
    g = generate(GeneratorSpec("scc-chain", blocks=27, block_size=3))
    oracle = ExactTransitiveOracle(g.vertex_count)
    hopset, trace = reduce_clustered_dag(
        g, scc_topological(g), oracle, 3, 4, Fraction(1, 2), np.random.SeedSequence(0)
    )
    return g, hopset, trace


def test_criterion_03_clustered_dag_reduction():
    """27 chained unit 3-cycles, lam=3 h=4 eps=1/2: exactly 4 iterations
    (27->9->3->1), measured stretch exactly 1, hopbound 4. Budget: 30 s."""
    t0 = time.perf_counter()
    g, hopset, trace = _run_criterion_3()
    counts = [r.group_count for r in trace.iterations]
    report = verify_hopset(g, hopset, Fraction(3, 2) ** 4, 4)
    elapsed = time.perf_counter() - t0
    ok = (
        counts == [27, 9, 3, 1]
        and report.passed
        and report.measured_stretch == 1
        and report.measured_hopbound <= 4
        and elapsed < 30
    )
    _report(
        3, ok,
        f"iterations={counts} stretch={report.measured_stretch} "
        f"hopbound={report.measured_hopbound} elapsed={elapsed:.1f}s (<30s)",
    )
    assert counts == [27, 9, 3, 1]
    assert report.passed
    assert report.measured_stretch == 1
    assert report.measured_hopbound <= 4
    assert elapsed < 30


def _run_criterion_4():
    g = unit_path(1024)
    cfg = ReductionConfig(lam=16, h=16, ldd_repetitions=2, seed=0)
    return g, reduce_shortcut(g, cfg, ExactReachabilityOracle(1024))


def test_criterion_04_shortcut_end_to_end():
    """Unit path n=1024, h=16: verify_shortcut passes (reachability
    diameter of the union <= 16, every edge a reachable pair). Budget: 2 min."""
    t0 = time.perf_counter()
    g, report = _run_criterion_4()
    check = verify_shortcut(g, report.shortcut, 16)
    elapsed = time.perf_counter() - t0
    verified = check.passed
    ok = verified and elapsed < 120
    _report(
        4, ok,
        f"size={report.total_size} hopbound={check.measured_hopbound} "
        f"elapsed={elapsed:.1f}s (<120s)",
    )
    assert verified
    assert elapsed < 120


def test_criterion_05_hopset_distance_preservation():
    """20 random weighted digraphs (n<=128, N<=32): distances of the union
    equal the originals entrywise and no clamp fires. Budget: 5 min."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    clamps = 0
    mismatches = 0
    for i in range(20):
        n = int(rng.integers(16, 129))
        m = int(rng.integers(n, 3 * n + 1))
        t = rng.integers(0, n, size=m)
        h = (t + 1 + rng.integers(0, n - 1, size=m)) % n
        g = DiGraph.from_arrays(n, t, h, rng.integers(1, 33, size=m), 32)
        cfg = ReductionConfig(
            lam=8, h=8, eps=Fraction(1, 2), ldd_repetitions=2, seed=i
        )
        report = reduce_hopset(g, cfg, ExactTransitiveOracle(n))
        clamps += report.clamp_count
        if not np.array_equal(dist_all_pairs(g.with_extra(report.hopset)), dist_all_pairs(g)):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = clamps == 0 and mismatches == 0 and elapsed < 300
    _report(
        5, ok,
        f"graphs=20 clamps={clamps} mismatches={mismatches} "
        f"elapsed={elapsed:.0f}s (<300s)",
    )
    assert clamps == 0
    assert mismatches == 0
    assert elapsed < 300


def _sandwich_samples(count, seed):
    """Random (edge lengths, j, eps) triples with |p| <= l(p)/2^j, which the
    per-edge lower bound 2^j <= length guarantees."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        j = int(rng.integers(0, 7))
        eps = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 11)))
        k = int(rng.integers(1, 9))
        lengths = [int(rng.integers(2**j, 6 * 2**j + 1)) for _ in range(k)]
        yield lengths, j, eps


def test_criterion_06_scaled_length_sandwich():
    """10^4 random triples: check l(p)/sigma <= l_j(p) <= (1+2*eps)*l(p)/sigma
    exactly. The upper half is false as stated whenever eps*2^j exceeds 1 and
    is not an integer (rounding sigma up makes l(p)/sigma too small a
    yardstick); the failure below is expected and kept honest. Budget: 10 s."""
    t0 = time.perf_counter()
    lower_bad = upper_bad = 0
    witness = None
    for lengths, j, eps in _sandwich_samples(10_000, 606):
        total = sum(lengths)
        scaled = sum(scaled_length(w, j, eps) for w in lengths)
        sigma = phase_sigma(j, eps)
        if Fraction(total, sigma) > scaled:
            lower_bad += 1
        if scaled > (1 + 2 * eps) * Fraction(total, sigma):
            upper_bad += 1
            if witness is None:
                witness = (lengths, j, str(eps))
    elapsed = time.perf_counter() - t0
    ok = lower_bad == 0 and upper_bad == 0 and elapsed < 10
    _report(
        6, ok,
        f"lower_violations={lower_bad} upper_violations={upper_bad} "
        f"first_upper_witness={witness} elapsed={elapsed:.1f}s (<10s)",
    )
    assert lower_bad == 0
    assert elapsed < 10
    assert upper_bad == 0, (
        "the stated upper bound fails for non-integer eps*2^j > 1; "
        f"first witness {witness}"
    )


def test_criterion_06_companion_corrected_upper_bound():
    """Same samples against the provable upper bound: l_j(p) = l(p) when
    eps*2^j <= 1, else l_j(p) <= (1+2*eps)*l(p)/(eps*2^j)."""
    for lengths, j, eps in _sandwich_samples(10_000, 606):
        total = sum(lengths)
        scaled = sum(scaled_length(w, j, eps) for w in lengths)
        factor = eps * 2**j
        if factor <= 1:
            assert scaled == total
        else:
            assert scaled <= (1 + 2 * eps) * Fraction(total) / factor
        assert Fraction(total, phase_sigma(j, eps)) <= scaled


def test_criterion_07_hop_budget_spot_check():
    """n=256 unit path, fixed seed: for 50 sampled pairs, the distance at
    hop budget floor(|p|/lambda') + h is finite and at most
    (1+eps)^(3*log_lam(n)) * l(p). Budget: 2 min."""
    t0 = time.perf_counter()
    n = 256
    g = unit_path(n)
    cfg = ReductionConfig(lam=8, h=8, eps=Fraction(1, 2), ldd_repetitions=2, seed=0)
    report = reduce_hopset(g, cfg, ExactTransitiveOracle(n))
    lam_prime = cfg.lambda_prime(n)
    # log_8(256) = 8/3, so the exponent 3*log_lam(n) is exactly 8
    bound_factor = (1 + cfg.eps) ** 8
    rng = np.random.default_rng(707)
    infinite = 0
    worst = Fraction(0)
    for _ in range(50):
        u = int(rng.integers(0, n - 1))
        v = int(rng.integers(u + 1, n))
        ell = v - u  # unit path: l(p) = |p|, ratio 1, phase j=0
        budget = int(ell // lam_prime) + cfg.h
        row = hop_limited_dist(g.with_extra(report.hopset), budget, sources=[u])[0]
        if not np.isfinite(row[v]):
            infinite += 1
            continue
        worst = max(worst, Fraction(int(row[v]), ell))
    elapsed = time.perf_counter() - t0
    ok = infinite == 0 and worst <= bound_factor and elapsed < 120
    _report(
        7, ok,
        f"pairs=50 infinite={infinite} worst_ratio={worst} "
        f"bound={float(bound_factor):.1f} elapsed={elapsed:.1f}s (<120s)",
    )
    assert infinite == 0
    assert worst <= bound_factor
    assert elapsed < 120


def test_criterion_08_oracle_size_law():
    """Every oracle call across representative pipeline runs satisfies
    |output| <= a*m0 + b for the oracle's declared (a, b); zero violations."""
    calls: list[tuple[int, int, OracleSizeLaw]] = []

    g1 = generate(GeneratorSpec("scc-chain", blocks=27, block_size=3))
    o1 = _RecordingOracle(ExactTransitiveOracle(g1.vertex_count))
    reduce_clustered_dag(
        g1, scc_topological(g1), o1, 3, 4, Fraction(1, 2), np.random.SeedSequence(0),
    )
    calls += [(m0, size, o1.size_law) for m0, size in o1.calls]

    g2 = unit_path(128)
    o2 = _RecordingOracle(ExactTransitiveOracle(128))
    reduce_hopset(
        g2, ReductionConfig(lam=8, h=8, ldd_repetitions=2, seed=0), o2
    )
    calls += [(m0, size, o2.size_law) for m0, size in o2.calls]

    violations = sum(
        1 for m0, size, law in calls if Fraction(size) > law.a * m0 + law.b
    )
    ok = violations == 0 and len(calls) > 0
    _report(8, ok, f"calls={len(calls)} violations={violations}")
    assert len(calls) > 0
    assert violations == 0


def test_criterion_09_brute_force_equivalence():
    """hop_limited_dist at budget n-1 equals dist_all_pairs entrywise on 100
    random graphs n <= 50 (relaxation rounds vs sparse Dijkstra). Budget: 30 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    mismatches = 0
    for _ in range(100):
        g = random_graph(rng, n_max=50, m_max=200, big_n=8)
        a = hop_limited_dist(g, g.vertex_count - 1)
        b = dist_all_pairs(g)
        if not np.array_equal(a, b):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30
    _report(9, ok, f"graphs=100 mismatches={mismatches} elapsed={elapsed:.1f}s (<30s)")
    assert mismatches == 0
    assert elapsed < 30


def test_criterion_10_determinism(tmp_path):
    """Repeating criteria 3 and 4 with the same seed yields byte-identical
    output files."""
    files = []
    for tag, runner, writer in (
        ("dag", _run_criterion_3, write_weighted_edge_set),
        ("shortcut", _run_criterion_4, write_edge_set),
    ):
        pair = []
        for attempt in ("a", "b"):
            out = runner()
            edges = out[1] if tag == "dag" else out[1].shortcut
            path = tmp_path / f"{tag}-{attempt}.txt"
            writer(edges, path)
            pair.append(path.read_bytes())
        files.append((tag, pair[0] == pair[1]))
    ok = all(same for _, same in files)
    _report(10, ok, " ".join(f"{tag}:{'identical' if s else 'DIFFERS'}" for tag, s in files))
    assert ok
