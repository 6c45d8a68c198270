"""Acceptance gate: one test per shipped guarantee.

Run with -s to see one PASS/FAIL line per criterion, each carrying the
measured figure next to the tolerance it is held to.  Tolerances here are
the contract values; nothing is tightened or loosened relative to the
module tests.
"""
import time

import numpy as np

from hyperselect.algebras import (
    FunctionalSpec,
    SubsetSeq,
    apply_functional,
    build_fS,
    cayley_unitary,
    default_strong_spec,
    functional_norm_on_fS,
    adjoint_isometry_defect,
    generate_algebra,
    isometry_defect,
    marechal_pseudometric,
    marechal_support,
    operator_norm,
    polar_witness,
    rotated_diagonal_algebra,
    unit_ball_sample,
)
from hyperselect.borel import (
    DepthInsufficient,
    bundled_borel_instances,
    pfin_census,
    pi3_reduce,
    sigma2_reduce,
)
from hyperselect.cli import main as cli_main
from hyperselect.duality import (
    counterexample_ball,
    counterexample_limit_disc,
    exact_support,
    is_subspace_ball,
    quotient_routes,
    subspace_from_spanning,
)
from hyperselect.norms import (
    dyadic_weights,
    eval_norm,
    l1,
    l2,
    linf,
)
from hyperselect.scenarios import (
    block_subsets,
    coords_to_sym,
    matrix_unit_probes,
    rotated_ball_map,
)
from hyperselect.selection import (
    BUNDLED_MAPS,
    HullTarget,
    OpenCover,
    SetValuedMap,
    build_partition_of_unity,
    check_lower_continuity,
    dense_selection_family,
    density_audit,
    grid_domain_1d,
    grid_domain_2d,
    jump_map,
    michael_selection,
)


def _line(tag, ok, detail):
    print(f"{tag} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_a1_quotient_norm_routes_agree():
    tols = {"l2": 1e-12, "l1": 1e-12, "linf": 1e-12}
    specs = {"l2": l2(), "l1": l1(), "linf": linf()}
    t0 = time.perf_counter()
    worst = {}
    for kind, spec in specs.items():
        rng = np.random.default_rng(11)
        w = 0.0
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            k = int(rng.integers(1, dim))
            V = subspace_from_spanning(rng.standard_normal((k, dim)),
                                       ambient=spec, side="primal")
            primal, dual = quotient_routes(rng.standard_normal(dim), V)
            w = max(w, abs(primal - dual))
        worst[kind] = w
    elapsed = time.perf_counter() - t0
    ok = all(worst[k] <= tols[k] for k in tols) and elapsed < 60.0
    assert _line("A1", ok,
                 "200 pairs/norm, max |primal-dual| l2 %.2e (tol 1e-12), "
                 "l1 %.2e, linf %.2e (tol 1e-12), %.1fs" %
                 (worst["l2"], worst["l1"], worst["linf"], elapsed))


def test_a2_limit_disc_is_not_a_subspace_ball():
    trunc = 10
    space = l1()
    verdict = is_subspace_ball(counterexample_limit_disc(trunc),
                               (0.5, 0.75), tol=1e-3, spec=space)
    witness = verdict["witness"]
    finite = [is_subspace_ball(counterexample_ball(n, trunc),
                               (0.5, 0.75), tol=1e-3, spec=space)
              for n in range(1, 9)]
    finite_ok = all(res["ok"] and res["defect"] == 0.0 for res in finite)
    delta0 = np.eye(trunc, dtype=np.complex128)[0]
    ok = (not verdict["ok"] and witness is not None and witness[0] == 0.5
          and witness[1].dtype == np.complex128 and np.array_equal(witness[1], delta0)
          and verdict["defect"] == 0.5 and finite_ok)
    assert _line("A2", ok,
                 "limit disc rejected at s=%s with defect %r (want exactly 0.5,"
                 " witness delta_0); B_1..B_8 pass with defect exactly 0" %
                 (None if witness is None else witness[0], verdict["defect"]))


def test_a3_partition_of_unity_axioms():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst_sum = 0.0
    containment_ok = True
    max_active = 0
    for _ in range(50):
        domain = grid_domain_2d(11, 11)
        count = int(rng.integers(4, 9))
        centers = rng.uniform(0.0, 1.0, size=(count, 2))
        radii = rng.uniform(0.2, 0.5, size=count)
        # drop an extra ball on any hole so every draw is a genuine cover
        while True:
            d = np.linalg.norm(domain.points[:, None, :] - centers[None], axis=2)
            covered = (d < radii[None, :]).any(axis=1)
            if covered.all():
                break
            centers = np.vstack([centers, domain.points[~covered][0]])
            radii = np.append(radii, 0.3)
        cover = OpenCover.from_balls(domain, centers, radii)
        pou = build_partition_of_unity(domain, cover)
        worst_sum = max(worst_sum, float(np.abs(pou.values.sum(axis=0) - 1.0).max()))
        containment_ok &= not np.any((pou.values > 0) & ~cover.bitmaps)
        max_active = max(max_active, int(pou.max_active))
    elapsed = time.perf_counter() - t0
    ok = worst_sum <= 1e-12 and containment_ok and max_active > 0 and elapsed < 30.0
    assert _line("A3", ok,
                 "50 covers: worst |sum-1| = %.2e (tol 1e-12), supports "
                 "contained exactly, max active elements per point = %d, %.1fs" %
                 (worst_sum, max_active, elapsed))


def test_a4_selection_iteration_contract():
    suite = [build() for build in BUNDLED_MAPS.values()]
    worst_defect = 0.0
    worst_ratio = 0.0
    for F in suite:
        res = michael_selection(F, tol=1e-3)
        worst_defect = max(worst_defect, float(res.defects.max()))
        for entry in res.rounds:
            if entry["k"] >= 1 and entry["max_step"] is not None:
                worst_ratio = max(worst_ratio, entry["max_step"] / 0.5 ** entry["k"])
    rejected = not check_lower_continuity(jump_map())["ok"]
    ok = (len(suite) == 10 and worst_defect <= 1e-3
          and worst_ratio <= 1.0 and rejected)
    assert _line("A4", ok,
                 "10 maps: max defect %.2e (tol 1e-3), max step/2^-k ratio "
                 "%.3f (bound 1), jump map rejected=%s" %
                 (worst_defect, worst_ratio, rejected))


def test_a5_dense_family_audit():
    tol = 1e-2
    dom = grid_domain_1d(21)
    interval = np.array([[0.0], [1.0]])
    F0 = SetValuedMap(dom, [interval] * len(dom),
                      HullTarget(interval), name="const", slope_hint=1.0)
    net0 = np.linspace(0.0, 1.0, 5)[:, None]
    bound_ok = True
    gaps0 = {}
    for m_max in (2, 4):
        gap, _ = density_audit(dense_selection_family(F0, net0, m_max, tol=tol), F0)
        gaps0[m_max] = gap
        bound_ok &= gap <= 1.0 / m_max + 2.0 * tol
    mono_ok = True
    for F in [build(21, 5) for build in BUNDLED_MAPS.values()]:
        net = np.vstack([F.target.generators,
                         F.target.generators.mean(axis=0)[None, :]])
        gap2, _ = density_audit(dense_selection_family(F, net, 2, tol=tol), F)
        gap4, _ = density_audit(dense_selection_family(F, net, 4, tol=tol), F)
        mono_ok &= gap4 <= gap2 + 1e-12
    # the marechal scenario's map and net, whose net holds every generator;
    # the family at m_max is the m <= m_max slice of the one at 4
    F, _ = rotated_ball_map(7, np.pi / 4)
    gens = np.unique(np.round(np.concatenate(list(F.generators().values())), 12), axis=0)
    members = dense_selection_family(F, np.concatenate([np.zeros((1, 3)), gens]), 4, tol=tol)
    gaps_hw = {m_max: density_audit([mem for mem in members if mem.m <= m_max], F)[0]
               for m_max in (2, 3, 4)}
    bound_ok &= all(gap <= 1.0 / m + 2.0 * tol for m, gap in gaps_hw.items())
    # the selection scenario's sample net on sine-band
    band = BUNDLED_MAPS["sine-band"](101, 5)
    net = np.linspace(0.0, 1.0, 5)[:, None]
    gap_band, _ = density_audit(dense_selection_family(band, net, 4, tol=tol), band)
    bound_ok &= gap_band <= 0.25 + 2.0 * tol
    ok = bound_ok and mono_ok
    assert _line("A5", ok,
                 "constant interval: gap(m=2) %.4f <= %.2f, gap(m=4) %.4f "
                 "<= %.2f; marechal gap(m=2,3,4) %s <= 1/m + %.2f; sine-band "
                 "gap(m=4) %.4f <= %.2f; gap non-increasing 2->4 on all 10 maps: %s" %
                 (gaps0[2], 0.5 + 2 * tol, gaps0[4], 0.25 + 2 * tol,
                  ", ".join("%.4f" % g for g in gaps_hw.values()), 2 * tol,
                  gap_band, 0.25 + 2 * tol, mono_ok))


def test_a6_support_closed_form_vs_sampled():
    rng = np.random.default_rng(23)
    gap = 0.0      # witness pairing against the closed form
    outside = 0.0  # HS distance from the witness to the algebra
    excess = 0.0   # witness operator norm above 1
    over = 0.0     # sampled members above the closed form: fp noise only
    for trial in range(100):
        n = int(rng.integers(1, 5))
        kind = trial % 4
        if kind == 0:
            gens = [_crandn(rng, n, n)]
        elif kind == 1:
            g = _crandn(rng, n, n)
            gens = [g + g.conj().T]
        elif kind == 2:
            gens = [np.diag(rng.integers(0, max(1, n - 1), size=n).astype(np.complex128))]
        else:
            gens = [_crandn(rng, n, n), _crandn(rng, n, n)]
        A = generate_algebra(gens, n)
        samples = unit_ball_sample(A, 200, seed=trial)
        for _ in range(20):
            x = _crandn(rng, n, n)
            x /= np.linalg.norm(x)
            closed = marechal_support(A, x)
            w = polar_witness(A, x)
            gap = max(gap, abs(abs(np.trace(w @ x)) - closed))
            outside = max(outside, float(np.linalg.norm(w - A.project(w))))
            excess = max(excess, operator_norm(w) - 1.0)
            pairings = np.abs(np.einsum("bij,ji->b", samples, x))
            over = max(over, float(pairings.max()) - closed)
    thetas = np.linspace(0.0, np.pi / 4, 16)
    reference = rotated_diagonal_algebra(0.0)
    probes = matrix_unit_probes(2, 8)
    vals = [marechal_pseudometric(rotated_diagonal_algebra(t), reference, probes)
            for t in thetas]
    mono = vals[0] <= 1e-12 and all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    ok = (max(gap, outside, excess) <= 1e-12 and over <= 1e-9 and mono
          and vals[-1] > 0.0)
    assert _line("A6", ok,
                 "100 algebras x 20 unit probes: polar witness |pairing-closed|"
                 " max %.1e, HS residual %.1e, norm-1 %.1e (tol 1e-12);"
                 " 200 samples-closed max %.1e (tol 1e-9); rotation"
                 " pseudometric 0 at theta=0, monotone to %.3f" %
                 (gap, outside, excess, over, vals[-1]))


def test_a7_block_functional_norm_formula():
    rng = np.random.default_rng(41)
    formula_gap = 0.0  # block formula against the trace-norm route
    witness_gap = 0.0  # route against the polar witness's pairing
    for trial in range(50):
        m = int(rng.integers(1, 5))
        k = int(rng.integers(1, m + 1))
        idx = rng.choice(m, size=k, replace=False)
        terms = tuple((int(i), int(i), _crandn(rng, m), _crandn(rng, m))
                      for i in idx)
        omega = FunctionalSpec(m, terms)
        S = SubsetSeq(m, tuple(
            frozenset(int(j) for j in np.nonzero(rng.random(m) < 0.6)[0])
            for _ in range(m)))
        r = functional_norm_on_fS(omega, S)
        w = polar_witness(build_fS(S)[0], omega.matrix())
        formula_gap = max(formula_gap, abs(r.value - r.route))
        witness_gap = max(witness_gap, abs(r.route - abs(apply_functional(omega, w))))
    local_ok = True
    for trial in range(10):
        m = 4
        n0 = int(rng.integers(1, 4))
        k = int(rng.integers(1, n0 + 1))
        idx = rng.choice(n0, size=k, replace=False)
        terms = tuple((int(i), int(i), _crandn(rng, m), _crandn(rng, m))
                      for i in idx)
        omega = FunctionalSpec(m, terms)
        head = tuple(frozenset(int(j) for j in np.nonzero(rng.random(m) < 0.6)[0])
                     for _ in range(n0))
        tails = [tuple(frozenset(int(j) for j in np.nonzero(rng.random(m) < 0.6)[0])
                       for _ in range(m - n0)) for _ in range(2)]
        vals = [functional_norm_on_fS(omega, SubsetSeq(m, head + t)).value
                for t in tails]
        local_ok &= vals[0] == vals[1]
    ok = formula_gap <= 1e-12 and witness_gap <= 1e-12 and local_ok
    assert _line("A7", ok,
                 "50 random functionals: |formula-route| max %.1e, "
                 "|route-witness| max %.1e (tol 1e-12); tail perturbation "
                 "exact on 10 draws: %s" % (formula_gap, witness_gap, local_ok))


def test_a8_probe_doubling_within_tail_weight():
    # The dyadically weighted reports: doubling the probe count from 8 to 16
    # may move each value by at most the tail weight sum_{m>8} 2^-m = 2^-8.
    # The sup-over-probes gap columns are deliberate escaping-probe detectors
    # and the continuity-modulus table thresholds on a hard eps, so neither
    # is weighted; the remaining scenario outputs use no probe sequences.
    tail = 2.0 ** -8
    slack = 1e-12
    deltas = {}

    trunc = 18
    limit = counterexample_limit_disc(trunc)
    worst = 0.0
    for n in range(1, 5):
        ball = counterexample_ball(n, trunc)
        gaps = {}
        for M in (8, 16):
            probes = np.eye(trunc)[:M]
            w = dyadic_weights(M)
            lv = np.array([exact_support(limit, p) for p in probes])
            bv = np.array([exact_support(ball, p) for p in probes])
            gaps[M] = float(np.dot(w, np.abs(bv - lv)))
        worst = max(worst, abs(gaps[16] - gaps[8]))
    deltas["weighted_gap"] = worst

    reference = rotated_diagonal_algebra(0.0)
    worst = 0.0
    for t in (0.05, 0.1, 0.2, np.pi / 8):
        vals = {M: marechal_pseudometric(rotated_diagonal_algebra(t), reference,
                                         matrix_unit_probes(2, M))
                for M in (8, 16)}
        worst = max(worst, abs(vals[16] - vals[8]))
    deltas["curve"] = worst

    m = 2
    worst = 0.0
    for size in (1, 2):
        algebra, _ = build_fS(block_subsets(m, size))
        for idx in range(min(6, algebra.dim)):
            unit = algebra.hs_basis[idx]
            nb = operator_norm(unit)
            vals = {M: eval_norm(unit / nb, default_strong_spec(m * m, M))
                    for M in (8, 16)}
            worst = max(worst, abs(vals[16] - vals[8]))
    deltas["rho_strong"] = worst

    F, grid = rotated_ball_map(5, np.pi / 4)
    gens = np.unique(np.round(np.concatenate(list(F.generators().values())), 12),
                     axis=0)
    net = np.concatenate([np.zeros((1, gens.shape[1])), gens])
    members = dense_selection_family(F, net, 2, tol=1e-2)
    from hyperselect.norms import make_probe_sequence, probe_strong_star
    specs = {M: probe_strong_star(make_probe_sequence(2, M)) for M in (8, 16)}
    worst = 0.0
    for j, gens_j in F.generators().items():
        for w in gens_j:
            target = coords_to_sym(w)
            vals = {M: min(eval_norm(coords_to_sym(mem.values[j]) - target, spec)
                           for mem in members)
                    for M, spec in specs.items()}
            worst = max(worst, abs(vals[16] - vals[8]))
    deltas["audit_strong_star"] = worst

    ok = all(v <= tail + slack for v in deltas.values())
    assert _line("A8", ok,
                 "probe count 8->16 moves weighted reports by "
                 + ", ".join("%s %.2e" % kv for kv in sorted(deltas.items()))
                 + " (tail weight %.2e)" % tail)


def test_a9_borel_reductions():
    bundle = bundled_borel_instances(10, 10, 4)
    certified = [r for r in bundle if r["expected"] in ("in", "out")]
    verdict_ok = len(certified) == 20
    for rec in certified:
        verdict = pfin_census(sigma2_reduce(rec["trees"], rec["x"]))["verdict"]
        verdict_ok &= (verdict == "CertifiedFinite") == (rec["expected"] == "in")

    picks = [certified[0], certified[7], certified[14]]
    x = picks[0]["x"]
    mats = pi3_reduce([rec["trees"] for rec in picks], x)
    compose_ok = len(mats) == 3 and all(
        np.array_equal(mats[k], sigma2_reduce(picks[k]["trees"], x))
        for k in range(3))

    shallow = bundled_borel_instances(8, 10, 4)
    deep = bundled_borel_instances(16, 10, 4)
    dichotomy_ok = True
    frontier = 0
    for s, d in zip(shallow, deep):
        try:
            m1 = sigma2_reduce(s["trees"], s["x"])
            m2 = sigma2_reduce(d["trees"], d["x"])
        except DepthInsufficient:
            dichotomy_ok &= s["expected"] == "depth_insufficient"
            frontier += 1
            continue
        verdict = pfin_census(m1, deeper=m2)["verdict"]
        dichotomy_ok &= verdict == ("CertifiedFinite" if s["expected"] == "in"
                                    else "GrowingWithDepth")
    ok = verdict_ok and compose_ok and dichotomy_ok
    assert _line("A9", ok,
                 "20 certified verdicts match membership; matrix stack equals "
                 "per-family reductions; two-depth dichotomy correct with %d "
                 "frontier instances" % frontier)


def test_a10_isometry_inequalities():
    rng = np.random.default_rng(3)
    worst = -np.inf
    for _ in range(200):
        n = int(rng.integers(1, 7))
        h = _crandn(rng, n, n)
        u = cayley_unitary((h + h.conj().T) / 2.0)
        g = _crandn(rng, n, n)
        x = rng.uniform(0.0, 1.0) * g / max(1.0, operator_norm(g))
        xi = _crandn(rng, n)
        xi /= np.linalg.norm(xi)
        worst = max(worst, isometry_defect(x, u, xi),
                    adjoint_isometry_defect(x, u, xi))
    ok = worst <= 1e-9
    assert _line("A10", ok,
                 "200 (u, x, xi) triples, n <= 6: worst defect %.2e over both "
                 "variants (tol 1e-9)" % worst)


def test_a11_scenario_determinism(tmp_path):
    configs = {
        "duality": {},
        "counterexample": {"terms": 8},
        "selection": {"n1d": 41, "n2d": 5},
        "marechal": {"theta_count": 8, "hw_points": 5},
        "finiteness": {},
        "borel": {},
    }
    identical = True
    total_files = 0
    for name, cfg in configs.items():
        args = [name, "--seed", "5"]
        if cfg:
            path = tmp_path / f"{name}.cfg"
            path.write_text("".join(f"{k}={v}\n" for k, v in cfg.items()))
            args += ["--config", str(path)]
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}_{run}"
            assert cli_main(args + ["--out", str(out)]) == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        identical &= names == sorted(p.name for p in outs[1].iterdir())
        identical &= len(names) > 0
        for fn in names:
            identical &= (outs[0] / fn).read_bytes() == (outs[1] / fn).read_bytes()
        total_files += len(names)
    assert _line("A11", identical,
                 "all 6 scenarios rerun with seed 5: %d output files "
                 "byte-identical" % total_files)
