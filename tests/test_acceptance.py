"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Tolerances are fixed here, not calibrated.

Criterion 06 (superposition-vs-convex-grid) checks how the
post-measurement average negativity and the convex average of the
single-channel negativities are ordered on the grid.  Neither dominates:
the convex average wins exactly where ``g(r1, r2) < 0`` (see
``helpers.convex_gap_oracle``), which is 480 of the 10100 off-diagonal
cells, all with ``r1, r2 >= 0.5498``, worst at ``(pi/5, pi/4)``.  The
criterion pins every cell's difference and sign against a 50-digit
oracle, so it fails on any shift of either closed form beyond 1e-12.
"""

import io
import json
import math

import numpy as np

from hawkchan import linop, metrics
from hawkchan.channel import (
    BlackHoleGeometry,
    ChannelParams,
    apply_channel,
    channel_output_closed_form,
    cross_term,
    squeezing_from_geometry,
)
from hawkchan.oracle import apply_channel_dilated, cross_term_dilated
from hawkchan.protocol import BELL_STATE, measure_control
from hawkchan.sweep import SweepSpec, emit_csv, emit_json, run_sweep

from helpers import convex_gap_oracle, geometry_r_oracle, single_channel

RNG = np.random.default_rng(20240815)


def check(num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def random_params(rng):
    return ChannelParams(r=rng.uniform(0.0, math.pi / 2 - 1e-9), phi=rng.uniform(0.0, 2 * math.pi))


def test_criterion_01_single_channel_output():
    worst_matrix = 0.0
    worst_neg = 0.0
    for _ in range(100):
        p = random_params(RNG)
        out = apply_channel(BELL_STATE, p)
        worst_matrix = max(worst_matrix, float(np.abs(out - channel_output_closed_form(p)).max()))
        worst_neg = max(worst_neg, abs(metrics.negativity(out) - math.cos(p.r) ** 2 / 2))
    check(
        1,
        "single-channel-output",
        worst_matrix <= 1e-12 and worst_neg <= 1e-10,
        f"matrix gap {worst_matrix:.2e} (tol 1e-12), negativity gap {worst_neg:.2e} (tol 1e-10)",
    )


def test_criterion_02_kraus_vs_dilation():
    worst = 0.0
    for _ in range(10):
        p1, p2 = random_params(RNG), random_params(RNG)
        for _ in range(20):
            g = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
            rho = g @ g.conj().T
            rho = rho / rho.trace()
            worst = max(
                worst,
                float(np.abs(apply_channel(rho, p1) - apply_channel_dilated(rho, p1)).max()),
                float(np.abs(cross_term(rho, p1, p2) - cross_term_dilated(rho, p1, p2)).max()),
                float(np.abs(cross_term(rho, p2, p1) - cross_term_dilated(rho, p2, p1)).max()),
            )
    check(2, "kraus-vs-dilation", worst <= 1e-10, f"worst route gap {worst:.2e} (tol 1e-10)")


def test_criterion_03_protocol_algebra():
    worst_prob = worst_scalar = worst_recon = worst_neg = 0.0
    for _ in range(100):
        p1, p2 = random_params(RNG), random_params(RNG)
        stats = measure_control(p1, p2)
        worst_prob = max(worst_prob, abs(stats.p_plus + stats.p_minus - 1.0))

        r1, phi1 = p1.r, p1.phi
        r2, phi2 = p2.r, p2.phi
        cc = math.cos(r1) * math.cos(r2)
        ss = math.sin(r1) * math.sin(r2)
        a = 3.0 + cc + math.cos(phi1 - phi2) * ss
        b = math.sin((phi1 - phi2) / 2.0) ** 2 * ss
        c = 1.0 - cc - math.cos(phi1 - phi2) * ss
        worst_scalar = max(
            worst_scalar,
            abs(stats.a_scalar - a),
            abs(stats.b_scalar - b),
            abs(stats.c_scalar - c),
        )

        rebuilt = stats.p_plus * stats.rho_plus
        if stats.rho_minus is not None:
            rebuilt = rebuilt + stats.p_minus * stats.rho_minus
            worst_neg = max(worst_neg, metrics.negativity(stats.rho_minus))
        worst_recon = max(worst_recon, float(np.abs(rebuilt - stats.rho_mixture).max()))
    check(
        3,
        "protocol-algebra",
        worst_prob <= 1e-12 and worst_scalar <= 1e-12 and worst_recon <= 1e-12 and worst_neg < 1e-12,
        f"prob {worst_prob:.2e}, scalars {worst_scalar:.2e}, reconstruction {worst_recon:.2e}, "
        f"minus-branch negativity {worst_neg:.2e} (tol 1e-12)",
    )


def test_criterion_04_closed_form_negativities():
    rs = np.linspace(0.0, math.pi / 4, 27)[1:-1]  # open square (0, pi/4)^2
    worst = 0.0
    for r1 in rs:
        for r2 in rs:
            p1, p2 = ChannelParams(r1), ChannelParams(r2)
            stats = measure_control(p1, p2)
            numeric_avg, numeric_mix = stats.negativity_avg, stats.reports[-1].negativity_numeric
            numeric_convex = 0.5 * metrics.negativity(single_channel(p1)) + (
                0.5 * metrics.negativity(single_channel(p2))
            )
            worst = max(
                worst,
                abs(numeric_avg - metrics.negativity_avg_closed(r1, r2)),
                abs(numeric_mix - metrics.negativity_mixture_closed(r1, r2)),
                abs(numeric_convex - metrics.negativity_convex_avg(r1, r2)),
            )
    phase_rs = np.linspace(0.0, math.pi / 2, 102)[:-1]
    for r in phase_rs:
        stats = measure_control(ChannelParams(r, 0.0), ChannelParams(r, math.pi))
        worst = max(worst, abs(stats.negativity_avg - metrics.negativity_avg_closed(r, r, math.pi)))
    check(4, "closed-form-negativities", worst <= 1e-10, f"worst gap {worst:.2e} (tol 1e-10)")


def _negativity_grid_difference(baseline):
    rs = np.linspace(0.0, math.pi / 4, 101)
    diff = np.empty((101, 101))
    for i, r1 in enumerate(rs):
        for j, r2 in enumerate(rs):
            diff[i, j] = metrics.negativity_avg_closed(r1, r2) - baseline(r1, r2)
    return rs, diff


def test_criterion_05_superposition_vs_mixture_grid():
    _, diff = _negativity_grid_difference(metrics.negativity_mixture_closed)
    nonneg = float(diff.min()) >= 0.0
    above = int((diff > 1e-6).sum())
    total_off_corner = diff.size - 1
    fraction = above / total_off_corner
    symmetric = float(np.abs(diff - diff.T).max()) <= 1e-12
    check(
        5,
        "superposition-vs-mixture-grid",
        nonneg and fraction >= 0.95 and symmetric,
        f"min {diff.min():.2e}, {100 * fraction:.2f}% of cells above 1e-6, "
        f"asymmetry {np.abs(diff - diff.T).max():.2e}",
    )


def test_criterion_06_superposition_vs_convex_grid():
    rs, diff = _negativity_grid_difference(metrics.negativity_convex_avg)
    diag = np.abs(np.diagonal(diff))
    diag_ok = float(diag.max()) <= 1e-10

    # Both averages are symmetric in (r1, r2), so the oracle fills the
    # upper triangle and mirrors it.
    exact = np.empty_like(diff)
    g = np.empty_like(diff)
    for i in range(rs.size):
        for j in range(i, rs.size):
            exact[i, j], g[i, j] = convex_gap_oracle(rs[i], rs[j])
            exact[j, i], g[j, i] = exact[i, j], g[i, j]
    gap = float(np.abs(diff - exact).max())
    off = ~np.eye(rs.size, dtype=bool)  # on the diagonal g vanishes; the 1e-10 clause covers it
    min_exact = float(np.abs(exact[off]).min())
    signs_ok = bool(np.array_equal(np.sign(diff[off]), np.sign(g[off])))
    convex_wins = int((g[off] < 0.0).sum())

    worst_idx = np.unravel_index(np.argmin(diff), diff.shape)
    detail = (
        f"diagonal |diff| max {diag.max():.2e} (tol 1e-10); oracle gap {gap:.2e} (tol 1e-12); "
        f"sign(diff) == sign(g) off the diagonal: {signs_ok} (min |exact| {min_exact:.2e} > 1e-12); "
        f"convex average wins on {convex_wins} cells, worst {diff[worst_idx]:.3e} at "
        f"(r1, r2) = ({rs[worst_idx[0]]:.6f}, {rs[worst_idx[1]]:.6f})"
    )
    check(
        6,
        "superposition-vs-convex-grid",
        diag_ok and gap <= 1e-12 and min_exact > 1e-12 and signs_ok,
        detail,
    )


def test_criterion_07_coherent_information_grid():
    rs = np.linspace(0.0, math.pi / 4, 51)
    worst_floor = 0.0
    min_off_diagonal = math.inf
    max_diagonal = 0.0
    for i, r1 in enumerate(rs):
        for j, r2 in enumerate(rs):
            stats = measure_control(ChannelParams(r1), ChannelParams(r2))
            diff = stats.coherent_info_ensemble - stats.reports[-1].coherent_information
            worst_floor = min(worst_floor, diff)
            if i == j:
                # Identical channels make the two scenarios coincide, so
                # the difference vanishes identically on the diagonal.
                max_diagonal = max(max_diagonal, abs(diff))
            else:
                min_off_diagonal = min(min_off_diagonal, diff)
    check(
        7,
        "coherent-information-grid",
        worst_floor >= -1e-12 and min_off_diagonal > 0.0 and max_diagonal <= 1e-10,
        f"min {worst_floor:.2e} (floor -1e-12), off-diagonal min {min_off_diagonal:.2e} (> 0), "
        f"diagonal max {max_diagonal:.2e} (tol 1e-10)",
    )


def test_criterion_08_phase_superposition_curve():
    rs = np.linspace(0.0, math.pi / 2, 102)[:-1]
    ok = True
    for r in rs:
        quantum = metrics.negativity_avg_closed(r, r, math.pi)
        classical = math.cos(r) ** 2 / 2
        if r == 0.0:
            ok = ok and quantum == classical
        else:
            ok = ok and quantum > classical
    check(8, "phase-superposition-curve", ok, "|cos r|/2 >= cos^2(r)/2 on [0, pi/2), equality only at 0")


def test_criterion_09_geometry_squeezing_map():
    worst = 0.0
    in_range = True
    for _ in range(1000):
        mass = float(np.exp(RNG.uniform(math.log(0.1), math.log(10.0))))
        epsilon = float(np.exp(RNG.uniform(math.log(1e-6), math.log(10.0))))
        k0 = float(np.exp(RNG.uniform(math.log(1e-3), math.log(1.0))))
        hbar = RNG.uniform(0.5, 2.0)
        g = BlackHoleGeometry(mass=mass, radius=2.0 * mass * (1.0 + epsilon), k0=k0, hbar=hbar)
        r = squeezing_from_geometry(g).r
        in_range = in_range and 0.0 < r < math.pi / 4
        worst = max(worst, abs(r - geometry_r_oracle(mass, g.radius, k0, hbar)))

    k0_grid = np.linspace(0.05, 2.0, 50)
    r_of_k0 = [squeezing_from_geometry(BlackHoleGeometry(1.0, 2.05, k)).r for k in k0_grid]
    monotone_k0 = all(b < a for a, b in zip(r_of_k0, r_of_k0[1:]))

    radius_grid = np.linspace(2.01, 4.0, 50)  # ascending radius means ascending sqrt(f0)
    r_of_f0 = [squeezing_from_geometry(BlackHoleGeometry(1.0, rad, 0.3)).r for rad in radius_grid]
    monotone_f0 = all(b < a for a, b in zip(r_of_f0, r_of_f0[1:]))

    check(
        9,
        "geometry-squeezing-map",
        in_range and monotone_k0 and monotone_f0 and worst <= 1e-13,
        f"1000 draws in (0, pi/4): {in_range}; monotone in k0/{monotone_k0} and sqrt(f0)/{monotone_f0}; "
        f"oracle gap {worst:.2e} (tol 1e-13)",
    )


def test_criterion_10_sweep_determinism():
    specs = [
        SweepSpec("neg_pct_diff_mixture", resolution=41),
        SweepSpec("neg_pct_diff_convex", resolution=41),
        SweepSpec("coherent_info_diff", resolution=21),
        SweepSpec("phase_curve", r_range=(0.0, 1.5), resolution=101),
    ]
    ok = True
    details = []
    for spec in specs:
        csv_bytes = []
        json_bytes = []
        for _ in range(2):
            grid = run_sweep(spec)
            buf_csv, buf_json = io.StringIO(), io.StringIO()
            emit_csv(grid, buf_csv)
            emit_json(grid, buf_json)
            csv_bytes.append(buf_csv.getvalue().encode())
            json_bytes.append(buf_json.getvalue().encode())
        identical = csv_bytes[0] == csv_bytes[1] and json_bytes[0] == json_bytes[1]

        grid = run_sweep(spec)
        rows = [line.split(",") for line in csv_bytes[0].decode().splitlines()[1:]]
        parsed = np.array([float(row[-1]) for row in rows]).reshape(grid.values.shape)
        csv_round_trip = float(np.abs(parsed - grid.values).max()) <= 1e-11
        doc = json.loads(json_bytes[0].decode())
        json_round_trip = np.array_equal(np.array(doc["values"]), grid.values)

        ok = ok and identical and csv_round_trip and json_round_trip
        details.append(f"{spec.metric}: identical={identical}, csv<=1e-11={csv_round_trip}, json exact={json_round_trip}")
    check(10, "sweep-determinism", ok, "; ".join(details))
