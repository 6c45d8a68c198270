"""Runnable experiment scenarios behind the command-line entry point.

Each scenario reads a flat key=value config, runs one of the package's
pipelines deterministically, and writes CSV/JSON files whose bytes depend
only on the config and the seed.  All floats are rendered with %.12g and
JSON keys are sorted, so a rerun with the same inputs reproduces the files
exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# No numpy and no library module at module level: each runner imports, when
# it is called, only the modules it uses, so a process that fails on its
# config, or runs one scenario, loads no more than that needs.  Runners read
# library functions at call time, never through a binding made at import, so
# a function rebound in its own module (a test's monkeypatch, perfbench's
# tracer) is the one they call.


class ConfigError(ValueError):
    """Bad scenario configuration: unknown key, wrong type, out of range."""


# ---------------------------------------------------------------------------
# config parsing and deterministic writers


def parse_config_file(path):
    """Flat key=value lines; '#' starts a comment, blanks are skipped."""
    raw = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


# A range is (text, test): how a message names the accepted values, and the
# check each value (each element, for a comma list) must pass.
def _at_least(lo):
    return f"at least {lo}", lambda v: v >= lo


def _between(lo, hi):
    return f"a value in [{lo}, {hi}]", lambda v: lo <= v <= hi


def _one_of(*choices):
    return f"one of {', '.join(choices)}", lambda v: v in choices


_POSITIVE = "a positive number", lambda v: v > 0
_NONZERO = "a nonzero number", lambda v: v != 0
_UNIT_OPEN = "a number in (0, 1)", lambda v: 0 < v < 1
_ANY = "any value", lambda v: True


def _resolve(params, table):
    """Parse and check every key of a scenario's table, key -> (default,
    range).  The default's type fixes the parse, and a tuple default marks a
    comma list."""
    unknown = sorted(set(params) - set(table))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    out = {}
    for key, (default, (text, test)) in table.items():
        if key not in params:
            out[key] = default
            continue
        try:
            value = _parse(params[key], default)
        except ValueError as err:
            raise ConfigError(f"config key {key}: {err}") from None
        for item in value if isinstance(value, tuple) else (value,):
            if not test(item):
                raise ConfigError(f"config key {key}: expected {text}, got {item!r}")
        out[key] = value
    return out


def _parse(raw, default, listed=False):
    if isinstance(default, tuple):
        parts = [part.strip() for part in raw.split(",") if part.strip()]
        if not parts:
            raise ValueError("empty list")
        return tuple(_parse(part, default[0], listed=True) for part in parts)
    if isinstance(default, bool):
        if raw.lower() not in ("true", "false"):
            raise ValueError("expected true or false")
        return raw.lower() == "true"
    if isinstance(default, int) and not listed:
        return int(raw)
    if isinstance(default, (int, float)):
        # a comma list of integers also takes integral floats such as 2.0
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {value}")
        if isinstance(default, int) and value != int(value):
            raise ValueError("expected integers")
        return type(default)(value)
    return raw


def _fmt(value):
    """A CSV cell: a numpy scalar as the Python value it holds, and a float
    with -0.0 written as 0.0 (adding 0.0 maps it there)."""
    if isinstance(value, str):
        return value
    if not isinstance(value, (bool, int, float)):
        value = value.item()  # a numpy scalar, as the Python bool, int or float it holds
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return "%.12g" % (value + 0.0)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return Path(path)


def _round_floats(obj):
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if hasattr(obj, "item"):
        obj = obj.item()  # a numpy scalar, as the Python bool, int or float it holds
    if isinstance(obj, float):
        return float(_fmt(obj))
    return obj


def _write_json(path, obj):
    # the text first, so a refused non-finite value leaves no file behind
    text = json.dumps(_round_floats(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return Path(path)


# ---------------------------------------------------------------------------
# duality: the two-route quotient distance sweep


def _duality_keys():
    from .norms import VECTOR_KINDS

    return {
        "dim": (4, _at_least(2)),
        "trials": (50, _at_least(1)),
        "norms": (("l2", "l1", "linf"), _one_of(*VECTOR_KINDS)),
        "tol_l2": (1e-12, _at_least(0)),
        "tol_polyhedral": (1e-12, _at_least(0)),
    }


def run_duality(params, seed, out):
    import numpy as np

    from .duality import SECTION_DIM_CAP, DualityMismatch, quotient_routes_by_dimension
    from .norms import NormSpec

    cfg = _resolve(params, _duality_keys())
    if cfg["dim"] > SECTION_DIM_CAP and any(k in ("l1", "linf") for k in cfg["norms"]):
        raise ConfigError(f"config key dim: polyhedral duality sweeps are capped at dim"
                          f" {SECTION_DIM_CAP}, got {cfg['dim']}")
    rng = np.random.default_rng(seed)
    rows = []
    summary = {}
    for kind in cfg["norms"]:
        spec = NormSpec(kind)
        tol = cfg["tol_l2"] if kind == "l2" else cfg["tol_polyhedral"]
        worst = 0.0
        spanning, x = [], []
        for _ in range(cfg["trials"]):
            k = int(rng.integers(1, cfg["dim"]))
            spanning.append(rng.standard_normal((k, cfg["dim"])))
            x.append(rng.standard_normal(cfg["dim"]))
        routes = quotient_routes_by_dimension(np.array(x), spanning, spec)
        for trial, (primal, dual) in enumerate(zip(*(r.tolist() for r in routes))):
            diff = abs(primal - dual)
            worst = max(worst, diff)
            rows.append((trial, kind, primal, dual, diff))
            if diff > tol:
                raise DualityMismatch(
                    f"{kind} trial {trial}: primal {primal:.9g} vs dual {dual:.9g}"
                    f" exceeds tol {tol:g}")
        summary[kind] = {"trials": cfg["trials"], "max_abs_diff": worst, "tol": tol}
    return [
        _write_csv(out / "duality.csv",
                   ("trial", "norm", "primal", "dual", "abs_diff"), rows),
        _write_json(out / "summary.json", {"per_norm": summary, "seed": seed}),
    ]


# ---------------------------------------------------------------------------
# counterexample: the non-ball limit of subspace balls


_COUNTEREXAMPLE_KEYS = {
    "terms": (16, _at_least(1)),
    "trunc_dim": (0, _at_least(0)),  # 0 means terms + 2
    "probe_count": (8, _at_least(1)),
    "scales": ((0.5, 0.75), _UNIT_OPEN),
    "tol": (1e-3, _at_least(0)),
}


def run_counterexample(params, seed, out):
    import numpy as np

    from .duality import (
        convergence_gap,
        counterexample_ball,
        counterexample_limit_disc,
        counterexample_subspace,
        exact_support,
        is_subspace_ball,
    )
    from .norms import Subspace, array_to_json, dyadic_weights, l1, linf

    cfg = _resolve(params, _COUNTEREXAMPLE_KEYS)
    terms, scales = cfg["terms"], cfg["scales"]
    trunc = cfg["trunc_dim"] if cfg["trunc_dim"] else terms + 2
    if trunc <= terms:
        raise ConfigError(f"config key trunc_dim: expected more than terms = {terms},"
                          f" got {trunc}")
    if cfg["probe_count"] > trunc:
        raise ConfigError(f"config key probe_count: expected at most trunc_dim = {trunc},"
                          f" got {cfg['probe_count']}")
    space = l1()  # the sets live in the dual of little-l1, probed in sup norm

    limit = counterexample_limit_disc(trunc)
    verdict = is_subspace_ball(limit, scales, tol=cfg["tol"], spec=space)
    witness = verdict["witness"]
    files = [_write_json(out / "witness.json", {
        "ok": verdict["ok"],
        "defect": verdict["defect"],
        "scale": None if witness is None else witness[0],
        "rescaled_point": None if witness is None else array_to_json(witness[1]),
    })]

    probes = np.eye(trunc)[:cfg["probe_count"]]
    weights = dyadic_weights(cfg["probe_count"])
    limit_vals = exact_support(limit, probes)
    limit_span = Subspace(basis=np.eye(trunc)[:1].astype(np.complex128),
                          ambient=linf(), side="dual")
    subspaces = [counterexample_subspace(n, trunc) for n in range(1, terms + 1)]
    fixed_gaps = convergence_gap(subspaces, limit_span, probes)
    # term n's escaping probe is e_n.  V_n and the limit span both live on
    # coordinates 0 and n, so both supports vanish exactly at every e_j with
    # j other than 0 and n: one call over the fixed probes and e_1 ... e_terms
    # gives each term the gap over its own fixed probes and e_n.
    escape_gaps = convergence_gap(subspaces, limit_span,
                                  np.vstack([probes, np.eye(trunc)[1:terms + 1]]))
    rows = []
    for n, fixed_gap, escape_gap in zip(range(1, terms + 1), fixed_gaps, escape_gaps):
        ball = counterexample_ball(n, trunc)
        ok_n = is_subspace_ball(ball, scales, tol=cfg["tol"], spec=space)["ok"]
        vals = exact_support(ball, probes)
        weighted_gap = float(np.dot(weights, np.abs(vals - limit_vals)))
        rows.append((n, ok_n, weighted_gap, fixed_gap, escape_gap))
    files.append(_write_csv(
        out / "counterexample.csv",
        ("n", "ball_ok", "weighted_gap", "fixed_probe_gap", "escaping_probe_gap"),
        rows))
    return files


# ---------------------------------------------------------------------------
# selection: the iteration decay log and the dense family audit


_SELECTION_KEYS = {
    "map": ("sliding-left-end", _ANY),  # checked against BUNDLED_MAPS
    "n1d": (101, _at_least(1)),
    "n2d": (11, _at_least(1)),
    "tol": (1e-3, _POSITIVE),
    "eps": (0.25, _POSITIVE),
    "net": ((0.0, 0.25, 0.5, 0.75, 1.0), _ANY),  # 1-D maps only; checked against C
    "m_max": (2, _at_least(1)),
    "family_tol": (1e-2, _POSITIVE),
    "check_jump": (True, _ANY),
}


def _scenario_net(F, points, user_set):
    """The config's net for a 1-D map; a 2-D map's net is its target's
    corners and centre."""
    import numpy as np

    if F.target.dim == 1:
        net = np.array(points)[:, None]
        if not F.target.contains(net).all():
            raise ConfigError("config key net: every net point must lie in the target set C")
        return net
    if user_set:
        raise ConfigError(f"config key net: map {F.name} is 2-D, and its net is the"
                          f" target's corners and centre; set net only for a 1-D map")
    gens = F.target.generators
    return np.vstack([gens, gens.mean(axis=0)])


def run_selection(params, seed, out):
    from .selection import (
        BUNDLED_MAPS,
        NetTooCoarse,
        approx_selection,
        check_lower_continuity,
        dense_selection_family,
        density_audit,
        jump_map,
        michael_selection,
    )

    cfg = _resolve(params, _SELECTION_KEYS)
    if cfg["map"] not in BUNDLED_MAPS:
        raise ConfigError(f"config key map: expected one of {', '.join(sorted(BUNDLED_MAPS))},"
                          f" got {cfg['map']!r}")
    F = BUNDLED_MAPS[cfg["map"]](cfg["n1d"], cfg["n2d"])
    net = _scenario_net(F, cfg["net"], "net" in params)
    try:
        approx = approx_selection(F, cfg["eps"], net)
    except NetTooCoarse as err:
        raise ConfigError(f"config key eps: {cfg['eps']} is too small for the net:"
                          f" {err}") from None

    report = {"map": cfg["map"], "continuity": check_lower_continuity(F)}
    if cfg["check_jump"]:
        check = check_lower_continuity(jump_map(cfg["n1d"]))
        # null on a grid with no adjacent pair, where the witness cannot jump
        report["jump_rejected"] = None if check["worst"]["x"] is None else not check["ok"]
    files = [_write_json(out / "continuity.json", report)]

    result = michael_selection(F, tol=cfg["tol"])
    decay_rows = []
    for entry in result.rounds:
        k = entry["k"]
        decay_rows.append((k, entry["max_defect"],
                           "" if entry["max_step"] is None else entry["max_step"],
                           "" if k == 0 else 0.5 ** k))
    files.append(_write_csv(out / "decay.csv",
                            ("k", "max_defect", "max_step", "step_bound"), decay_rows))
    sel_rows = [tuple(F.domain.points[i]) + tuple(result.values[i]) + (result.defects[i],)
                for i in range(len(F))]
    x_cols = tuple(f"x{j}" for j in range(F.domain.points.shape[1]))
    f_cols = tuple(f"f{j}" for j in range(result.values.shape[1]))
    files.append(_write_csv(out / "selection.csv",
                            x_cols + f_cols + ("defect",), sel_rows))

    approx_rows = [tuple(F.domain.points[i]) + tuple(approx.values[i]) + (approx.defects[i],)
                   for i in range(len(F))]
    files.append(_write_csv(out / "approx.csv",
                            x_cols + f_cols + ("defect",), approx_rows))

    # the family at m_max // 2 is the m <= m_max // 2 slice of the one at
    # m_max.  Its bound holds only for a net within 1/m of every generator,
    # which a user net need not be, so the bound is written and not checked.
    members = dense_selection_family(F, net, cfg["m_max"], tol=cfg["family_tol"])
    audit_rows = []
    for m_used in sorted({max(1, cfg["m_max"] // 2), cfg["m_max"]}):
        sliced = [mem for mem in members if mem.m <= m_used]
        gap, _ = density_audit(sliced, F)
        audit_rows.append((m_used, len(sliced), gap,
                           1.0 / m_used + 2.0 * cfg["family_tol"]))
    member_rows = [(i, mem.net_index, mem.m, mem.restricted_count)
                   for i, mem in enumerate(members)]
    files.append(_write_csv(out / "family_audit.csv",
                            ("m_max", "members", "audit_gap", "bound"),
                            audit_rows))
    files.append(_write_csv(out / "family.csv",
                            ("member", "net_index", "m", "restricted_count"),
                            member_rows))
    return files


# ---------------------------------------------------------------------------
# marechal: support convergence curves plus the dense-family demo on a
# parameter grid of algebras


def matrix_unit_probes(n, count):
    """Trace-norm-one probe matrices: matrix units in diagonal-band order,
    cycled when count exceeds n^2, so longer lists extend shorter ones."""
    import numpy as np

    pairs = sorted(((k, l) for k in range(n) for l in range(n)),
                   key=lambda kl: (kl[0] + kl[1], kl[0]))
    out = []
    for m in range(count):
        k, l = pairs[m % len(pairs)]
        e = np.zeros((n, n), dtype=np.complex128)
        e[k, l] = 1.0
        out.append(e)
    return out


_SQRT2 = math.sqrt(2.0)


def sym_to_coords(m):
    """Isometric coordinates (x00, x11, sqrt2 x01) of a real symmetric 2x2,
    or of each matrix in a stack; Euclidean distance of coordinates equals
    Frobenius distance."""
    import numpy as np

    m = np.asarray(m)
    return np.stack([m[..., 0, 0].real, m[..., 1, 1].real, _SQRT2 * m[..., 0, 1].real],
                    axis=-1)


def coords_to_sym(v):
    """The symmetric 2x2 with coordinates v, or a stack of them for rows v."""
    import numpy as np

    v = np.asarray(v)
    off = v[..., 2] / _SQRT2
    return np.stack([np.stack([v[..., 0], off], axis=-1),
                     np.stack([off, v[..., 1]], axis=-1)], axis=-2)


class SpectralBallTarget:
    """Operator-norm unit ball of real symmetric 2x2 matrices in isometric
    coordinates.  Projection clips eigenvalues to [-1, 1], which is the
    Frobenius-nearest point and hence the Euclidean projection in these
    coordinates."""

    def __init__(self):
        self.dim = 3

    def project(self, points):
        import numpy as np

        w, q = np.linalg.eigh(coords_to_sym(np.atleast_2d(np.asarray(points, dtype=np.float64))))
        return sym_to_coords((q * np.clip(w, -1.0, 1.0)[:, None, :]) @ q.swapaxes(-1, -2))

    def contains(self, points):
        import numpy as np

        from .hulls import CONTAINS_TOL

        sym = coords_to_sym(np.atleast_2d(np.asarray(points, dtype=np.float64)))
        return np.abs(np.linalg.eigvalsh(sym)).max(axis=1) <= 1.0 + CONTAINS_TOL


def rotated_ball_map(count, theta_max):
    """F(theta) = symmetric part of the unit ball of the rotated diagonal
    algebra A_theta, an exact square with vertices +-I and +-D_theta in
    isometric coordinates."""
    import numpy as np

    from .selection import DiscreteDomain, SetValuedMap

    thetas = np.linspace(0.0, theta_max, count)
    domain = DiscreteDomain(thetas[:, None])
    eye = sym_to_coords(np.eye(2))
    values = []
    for t in thetas:
        c, s = math.cos(t), math.sin(t)
        u = np.array([[c, -s], [s, c]])
        d = sym_to_coords(u @ np.diag([1.0, -1.0]) @ u.T)
        values.append(np.array([eye, -eye, d, -d]))
    return SetValuedMap(domain, values, SpectralBallTarget(),
                        name="rotated-algebra-ball", slope_hint=4.0), thetas


_MARECHAL_KEYS = {
    "theta_count": (16, _at_least(2)),
    "theta_max": (math.pi / 8, _ANY),
    "probe_count": (8, _at_least(1)),
    "hw_points": (7, _at_least(2)),
    "hw_theta_max": (math.pi / 4, _NONZERO),  # the grid points must differ
    "hw_m_max": (2, _at_least(1)),
    "hw_tol": (1e-2, _POSITIVE),
}


def run_marechal(params, seed, out):
    import numpy as np

    from .algebras import marechal_pseudometric, rotated_diagonal_algebra
    from .norms import InvariantViolation, eval_norm, make_probe_sequence, probe_strong_star
    from .selection import dense_selection_family, density_audit

    cfg = _resolve(params, _MARECHAL_KEYS)
    probes = matrix_unit_probes(2, cfg["probe_count"])
    reference = rotated_diagonal_algebra(0.0)
    thetas = np.linspace(0.0, cfg["theta_max"], cfg["theta_count"])
    curve_rows = [(t, marechal_pseudometric(rotated_diagonal_algebra(t), reference, probes))
                  for t in thetas]
    files = [_write_csv(out / "curve.csv", ("theta", "pseudometric"), curve_rows)]

    F, grid = rotated_ball_map(cfg["hw_points"], cfg["hw_theta_max"])
    # The net must sit within 1/m of every audited generator, and the rotated
    # vertices drift with theta, so the net carries each grid value's corners.
    gens = np.unique(np.round(np.concatenate(list(F.generators().values())), 12), axis=0)
    net = np.concatenate([np.zeros((1, gens.shape[1])), gens])
    members = dense_selection_family(F, net, cfg["hw_m_max"], tol=cfg["hw_tol"])
    hw_thetas = grid.tolist()
    member_rows = [(i, mem.net_index, mem.m, t, *v) for i, mem in enumerate(members)
                   for t, v in zip(hw_thetas, mem.values.tolist())]
    files.append(_write_csv(
        out / "hw_family.csv",
        ("member", "net_index", "m", "theta", "v0", "v1", "v2"), member_rows))

    ss_spec = probe_strong_star(make_probe_sequence(2, cfg["probe_count"]))
    worst_l2, l2_rows = density_audit(members, F)
    worst_ss, ss_rows = density_audit(members, F, metric=lambda a, b: eval_norm(
        coords_to_sym(a) - coords_to_sym(b), ss_spec))
    audit_rows = [(hw_thetas[j], g, best_l2, best_ss)
                  for (j, g, _, best_l2), (_, _, _, best_ss) in zip(l2_rows, ss_rows)]
    files.append(_write_csv(out / "hw_audit.csv",
                            ("theta", "generator", "audit_l2", "audit_strong_star"),
                            audit_rows))
    # every generator w is a net point v_n, so member (n, m) is pinned at w's
    # theta and lies within 1/m + 2 tol of w there: the bound is a theorem
    bound = 1.0 / cfg["hw_m_max"] + 2.0 * cfg["hw_tol"]
    if worst_l2 > bound:
        j, g = next((j, g) for j, g, _, best in l2_rows if best == worst_l2)
        raise InvariantViolation(f"dense-family audit gap {worst_l2} exceeds the bound"
                                 f" {bound} at theta {grid[j]}, generator {g}")
    files.append(_write_json(out / "summary.json", {
        "curve_max": max(r[1] for r in curve_rows),
        "curve_min": min(r[1] for r in curve_rows),
        "family_members": len(members),
        "audit_bound_l2": bound,
        "worst_audit_l2": worst_l2,
        "worst_audit_strong_star": worst_ss,
    }))
    return files


# ---------------------------------------------------------------------------
# finiteness: adjoint continuity modulus against block size


def _finiteness_keys():
    from .algebras import FS_CAP

    return {
        "m": (4, _between(1, math.isqrt(FS_CAP))),  # the block algebra acts on m*m coordinates
        "block_sizes": ((1, 2, 4), _at_least(1)),
        "eps_list": ((0.05, 0.1, 0.2, 0.4), _POSITIVE),
        "probe_count": (8, _at_least(1)),
        "witness_count": (6, _at_least(0)),
    }


def block_subsets(m, size):
    """S_n = the contiguous block of `size` indices containing n."""
    from .algebras import SubsetSeq

    return SubsetSeq(m, tuple(
        frozenset(range((n // size) * size, min(m, (n // size) * size + size)))
        for n in range(m)))


def run_finiteness(params, seed, out):
    from .algebras import adjoint_modulus, build_fS, default_strong_spec
    from .norms import eval_norm

    cfg = _resolve(params, _finiteness_keys())
    sizes, eps_list = cfg["block_sizes"], cfg["eps_list"]
    if max(sizes) > cfg["m"]:
        raise ConfigError(f"config key block_sizes: expected at most m = {cfg['m']},"
                          f" got {max(sizes)}")
    try:
        spec = default_strong_spec(cfg["m"] ** 2, cfg["probe_count"])
    except ValueError as err:  # dimension m^2 = 1 runs out of probe directions
        raise ConfigError(f"config key probe_count: {err}, got {cfg['probe_count']}") from None
    rows = []
    witness_rows = []
    for size in sizes:
        algebra, _ = build_fS(block_subsets(cfg["m"], size))
        rows.extend((eps, delta, size) for eps, delta in adjoint_modulus(algebra, eps_list, spec))
        rho = eval_norm(algebra.units[:cfg["witness_count"]], spec)
        witness_rows.extend((size, idx, r) for idx, r in enumerate(rho))
    return [
        _write_csv(out / "finiteness.csv", ("eps", "delta", "block_size"), rows),
        _write_csv(out / "witnesses.csv",
                   ("block_size", "unit_index", "rho_strong"), witness_rows),
    ]


# ---------------------------------------------------------------------------
# borel: the two-depth Pfin census table


_BOREL_KEYS = {
    "d": (8, _at_least(1)),
    "d2": (16, _at_least(1)),
    "count": (10, _at_least(1)),
    # the bundle lists 2**prefix_len instances, so the length needs a cap;
    # 19 admits every length that prefix_len < d <= 20 allowed
    "prefix_len": (4, _between(0, 19)),
    "frontier_policy": ("record", _one_of("record", "fail")),
}


def run_borel(params, seed, out):
    from .borel import DepthInsufficient, bundled_borel_instances, pfin_census, sigma2_reduce
    from .norms import InvariantViolation

    cfg = _resolve(params, _BOREL_KEYS)
    if not cfg["prefix_len"] < cfg["d"] <= cfg["d2"]:
        raise ConfigError(f"config key d: expected prefix_len = {cfg['prefix_len']} < d"
                          f" <= d2 = {cfg['d2']}, got {cfg['d']}")
    if 2 ** cfg["prefix_len"] <= cfg["count"]:
        raise ConfigError(f"config key count: expected fewer than 2**prefix_len ="
                          f" {2 ** cfg['prefix_len']} family members, got {cfg['count']}")
    rows = []
    certified = frontier = 0
    for inst in bundled_borel_instances(cfg["d"], cfg["count"], cfg["prefix_len"]):
        expected = inst["expected"]
        try:
            m1 = sigma2_reduce(inst["trees"], inst["x"])
            m2 = sigma2_reduce(*inst["build"](cfg["d2"]))
        except DepthInsufficient:
            if cfg["frontier_policy"] == "fail":
                raise
            rows.append((inst["name"], expected, "", "", "DepthInsufficient",
                         expected == "depth_insufficient"))
            frontier += 1
            continue
        census = pfin_census(m1, deeper=m2)
        verdict = census["verdict"]
        match = verdict == ("CertifiedFinite" if expected == "in" else "GrowingWithDepth")
        if not match:
            raise InvariantViolation(
                f"census verdict {verdict} contradicts analytic membership"
                f" for {inst['name']}")
        certified += 1
        rows.append((inst["name"], expected, int(m1.sum()), int(m2.sum()),
                     verdict, match))
    files = [
        _write_csv(out / "borel.csv",
                   ("name", "expected", "support_d", "support_d2", "verdict", "match"),
                   rows),
        _write_json(out / "summary.json", {
            "depths": [cfg["d"], cfg["d2"]],
            "certified": certified,
            "frontier": frontier,
        }),
    ]
    return files


SCENARIOS = {
    "duality": run_duality,
    "counterexample": run_counterexample,
    "selection": run_selection,
    "marechal": run_marechal,
    "finiteness": run_finiteness,
    "borel": run_borel,
}
