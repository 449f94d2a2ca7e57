"""Golden trajectories: any drift in the solver's iterates fails here.

Each case records the iteration count, the termination, the step-kind
sequence (one letter per iteration: D = Descent, L = NullLineSearch,
T = NullTolerance) and the final iterate and objective to 17 significant
digits.  A change that alters these values on purpose says why, and
takes the new ones from ``PYTHONPATH=src python3 tests/test_golden.py``;
with ``--diff`` it prints instead, per case, whether the iteration count,
termination and step kinds match ``GOLDEN``, the count of each step kind
old -> new where they do not, and the largest relative change of the
final iterate and objective, and exits with status 1 when any case
differs from its record.

The records hold on CPython 3.11 with numpy 2.4.6, the release that
recorded them.  That release requires Python 3.11 or later, so it cannot
be installed on 3.10; whether the records hold there with an older NumPy
is unverified.  The min-norm QP (``minnorm._extend_factor``,
``_affine_weights`` and ``_wolfe``) sums floats with the builtin
``sum``, which adds left to right there; CPython 3.12 made it a
compensated sum, which can round otherwise.  ``test_builtin_sum_adds_left_to_right`` checks that first.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from gradsamp import (
    CantorStressProblem,
    CoverageProblem,
    FiniteMaxProblem,
    GsParams,
    MaxPiece,
    Rng,
    cantor_stress_oracle,
    finite_max_oracle,
    make_coverage_oracle,
    run,
)
import gradsamp.driver
from gradsamp.cli import run_experiment
from gradsamp.minnorm import _TOL, min_norm_point

REPO = Path(__file__).resolve().parents[1]
LETTER = {"Descent": "D", "NullLineSearch": "L", "NullTolerance": "T"}


def _fmt(v):
    return f"{float(v):.17g}"


def _kinds(trace_csv: Path) -> str:
    rows = trace_csv.read_text().splitlines()
    return "".join(LETTER[r.rsplit(",", 1)[1]] for r in rows[1:])


def _config_case(name, out):
    """One shipped config through the CLI at the config's own seed."""
    assert run_experiment(str(REPO / "configs" / f"{name}.json"), out_dir=str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    samp = summary["sampling"]
    got = {"iterations": samp["iterations"], "termination": samp["termination"],
           "kinds": _kinds(out / "trace.csv"),
           "final_x": [_fmt(v) for v in samp["final_x"]],
           "final_f": _fmt(samp["final_f"])}
    if "baseline_gd" in summary:
        gd = summary["baseline_gd"]
        got["gd_termination"] = gd["termination"]
        got["gd_final_f"] = _fmt(gd["final_f"])
    return got


def _trace_case(oracle, p, x1, seed):
    trace = run(oracle, p, x1, Rng(seed))
    return {"iterations": len(trace.records), "termination": trace.termination.value,
            "kinds": "".join(LETTER[r.step_kind.value] for r in trace.records),
            "final_x": [_fmt(v) for v in trace.final_x],
            "final_f": _fmt(trace.final_f)}


def _coverage_n20_case(out):
    """A seeded N=20, K=40 coverage instance, capped at 20 iterations."""
    gen = np.random.Generator(np.random.Philox(2020))
    K = 40
    prob = CoverageProblem(
        n_agents=20, bin_edges=tuple(float(e) for e in range(K + 1)),
        theta_lower=tuple(gen.uniform(0.0, 0.5, K) / K),
        theta_upper=tuple(gen.uniform(1.5, 3.0, K) / K),
        penalty_enabled=True)
    x1 = np.sort(gen.uniform(-2.0, 42.0, 20))
    return _trace_case(make_coverage_oracle(prob), GsParams(m=22, max_iters=20), x1, 11)


def _quad_max_case(out):
    """A seeded max of 4 convex quadratics in n=3, run to tolerance."""
    gen = np.random.Generator(np.random.Philox(404))
    pieces = []
    for _ in range(4):
        B = gen.standard_normal((3, 3))
        Q = B @ B.T
        pieces.append(MaxPiece(a=tuple(gen.standard_normal(3)), b=float(gen.standard_normal()),
                               Q=tuple(tuple(row) for row in Q)))
    prob = FiniteMaxProblem(pieces=tuple(pieces))
    p = GsParams(max_iters=2000, eps_min=1e-3, nu_min=1e-3)
    return _trace_case(finite_max_oracle(prob), p, gen.uniform(-2.0, 2.0, 3), 13)


def _maxquad_case(out):
    """MAXQUAD of Lemarechal & Mifflin (1978), n = 10 with five quadratic
    pieces, from one seeded start in [-1, 1]^10, run to tolerance."""
    n = 10
    pieces = []
    for k in range(1, 6):
        A = np.zeros((n, n))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                A[i - 1, j - 1] = A[j - 1, i - 1] = (
                    math.exp(i / j) * math.cos(i * j) * math.sin(k))
        for i in range(1, n + 1):
            A[i - 1, i - 1] = i / 10 * abs(math.sin(k)) + float(np.abs(A[i - 1]).sum())
        b = [math.exp(i / k) * math.sin(i * k) for i in range(1, n + 1)]
        pieces.append(MaxPiece(a=tuple(-v for v in b),
                               Q=tuple(tuple(row) for row in 2.0 * A)))
    prob = FiniteMaxProblem(pieces=tuple(pieces))
    gen = np.random.Generator(np.random.Philox(1978))
    p = GsParams(m=12, nu1=10.0, eps_min=1e-3, nu_min=1e-3, max_iters=1000)
    return _trace_case(finite_max_oracle(prob), p, gen.uniform(-1.0, 1.0, n), 19)


def _cantor_case(out):
    """The Cantor stress objective at depth 4, capped at 300 iterations."""
    oracle = cantor_stress_oracle(CantorStressProblem(depth=4))
    return _trace_case(oracle, GsParams(max_iters=300), np.array([0.3]), 17)


CASES = {
    "two_agent": lambda out: _config_case("two_agent", out),
    "five_agent": lambda out: _config_case("five_agent", out),
    "abs_value": lambda out: _config_case("abs_value", out),
    "coverage_n20": _coverage_n20_case,
    "quad_max": _quad_max_case,
    "maxquad": _maxquad_case,
    "cantor_depth4": _cantor_case,
}

GOLDEN = {
    "two_agent": {
        "iterations": 38,
        "termination": "TolerancesReached",
        "kinds": "DDDDDDDDDDDDDTTDDDTDDDTTDDDDDDTTDDDDDT",
        "final_x": ["0.99883429782643662", "3.0003647605289783"],
        "final_f": "1.0000010919412348",
        "gd_termination": "Stalled",
        "gd_final_f": "1.0033766276749507",
    },
    "five_agent": {
        "iterations": 120,
        "termination": "TolerancesReached",
        "kinds": (
            "DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDTDDDDDDDDDDDTDDDDDDDDDDDDDD"
            "DDDDDDDLDLDDTDDDLDDDLDDLDLDLTDLDLDLDDLDDLDLLTDLLLTDLDDLTDDLT"
        ),
        "final_x": [
            "0.73102249844267242", "1.8861286866081741", "2.9995838083819679",
            "4.1146053351760692", "5.2687615207633263",
        ],
        "final_f": "0.60745073860059673",
    },
    "abs_value": {
        "iterations": 34,
        "termination": "TolerancesReached",
        "kinds": "DDDDDDDDDDDDDDLTTDDTDDTDDTDDTDDDTT",
        "final_x": ["0.0010416666666668744"],
        "final_f": "0.0010416666666668744",
    },
    "coverage_n20": {
        "iterations": 20,
        "termination": "MaxIters",
        "kinds": "DDDDDDDDDDDDDDDDDDDD",
        "final_x": [
            "0.041388673363023862", "0.99253738393999535", "4.2508129561383932",
            "4.4977993968721606", "5.9451359241150055", "8.3147046233052091",
            "11.26288478624091", "18.265028494790446", "22.657089870916337",
            "25.254232100019401", "25.779576627667918", "26.217985379046869",
            "27.37252238609338", "29.578651424419082", "34.632458767978626",
            "35.257313879720421", "35.577681208217683", "35.72095190907384",
            "38.876248602737576", "40.021071292424111",
        ],
        "final_f": "2.9862093084658921",
    },
    "quad_max": {
        "iterations": 87,
        "termination": "TolerancesReached",
        "kinds": (
            "DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDTDDDDDTDDDDLTD"
            "DDDLTDDDTDDDDTDDDDTDDDDDDDT"
        ),
        "final_x": ["0.39221044566265167", "0.37786349063588304", "0.1897933404818033"],
        "final_f": "0.65712591511612295",
    },
    "maxquad": {
        "iterations": 242,
        "termination": "TolerancesReached",
        "kinds": (
            "DDDDDDDDDDDDDDDDDDDDDLTDDDDDDDDDDTDDDDDDDTDDDDDLDDDDLDDDLDTD"
            "LLLDDDDDDDDDTDDDDDDDDDDLDTDDDDDLDDDLLDDDDDLTDDLDDDDDDDDLDDDT"
            "DDLDDDDLDDDDDDLDLDDDTDDDDDDDDDDDDDDLLDLLDTDDDDDDDDDDDDDDDDDT"
            "DDDDDDDDDDDDDDLDDDDTDDDDDDDDDDDDDDDDLLDDTDDDDDDDDLDDDDDDDDDL"
            "DT"
        ),
        "final_x": [
            "-0.12620371157129395", "-0.034470255828354175", "-0.006922214223047965",
            "0.026323904035602953", "0.067285691396644073", "-0.27844199929943758",
            "0.074246009881184724", "0.13855617145923785", "0.084048495516359789",
            "0.038587084728729203",
        ],
        "final_f": "-0.84138913880660771",
    },
    "cantor_depth4": {
        "iterations": 300,
        "termination": "MaxIters",
        "kinds": "T" * 15 + "D" * 285,
        "final_x": ["0.30057983398438237"],
        "final_f": "3.7351148765046197e-07",
    },
}


def test_builtin_sum_adds_left_to_right():
    """The builtin sum of floats rounds after each addition, left to right,
    as the golden records assume."""
    assert sum([1e16, 1.0, -1e16]) == 0.0, (
        "the builtin sum() of floats is compensated on this interpreter "
        "(CPython 3.12 and later): minnorm._extend_factor, _affine_weights and "
        "_wolfe sum with it, and the GOLDEN records of tests/test_golden.py were "
        "taken on CPython 3.11, where it adds left to right")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_trajectory(name, tmp_path):
    assert CASES[name](tmp_path) == GOLDEN[name]


def test_maxquad_min_norm_points_are_certified(monkeypatch):
    """Every min-norm QP of the maxquad case meets its own Wolfe test,
    gap <= _TOL * (1 + ||g||^2), instead of stalling short of it."""
    gaps = []

    def checked(points):
        res = min_norm_point(points)
        gaps.append(res.gap / (_TOL * (1.0 + float(res.point @ res.point))))
        return res

    monkeypatch.setattr(gradsamp.driver, "min_norm_point", checked)
    _maxquad_case(None)
    assert len(gaps) == GOLDEN["maxquad"]["iterations"]
    bad = [r for r in gaps if r > 1.0]
    assert not bad, f"{len(bad)} of {len(gaps)} calls uncertified, worst {max(bad):.3g}"


def test_audit_line_flags_changes():
    want = GOLDEN["two_agent"]
    assert _audit(want, want) == ("iterations=same termination=same kinds=same "
                                  "gd_termination=same max_rel_change=0")
    got = dict(want, kinds="D" + want["kinds"][1:-1] + "D", final_f="1.0000010919422345")
    assert "kinds=DIFFERS" in _audit(got, want)
    assert "max_rel_change=1e-12" in _audit(got, want)
    want, got = dict(want, kinds="DDLT"), dict(want, kinds="DLLD")
    assert ("kinds=DIFFERS Descent=2->2 NullLineSearch=1->2 NullTolerance=1->0 "
            "gd_termination=same") in _audit(got, want)


def test_diff_fails_when_any_case_differs():
    """The --diff report passes on records equal to GOLDEN, and fails on a
    doctored record whose discrete fields all read same and whose final f
    moved in its 16th digit, or whose GD baseline ended otherwise."""
    got = {name: dict(record) for name, record in GOLDEN.items()}
    lines, same = _diff(got)
    assert same and len(lines) == len(GOLDEN)
    assert all(line.endswith("max_rel_change=0") for line in lines)
    got["maxquad"]["final_f"] = "-0.84138913880660781"
    lines, same = _diff(got)
    assert not same
    assert [line for line in lines if not line.endswith("max_rel_change=0")] == [
        "maxquad: iterations=same termination=same kinds=same max_rel_change=1.32e-16"]
    got = {name: dict(record) for name, record in GOLDEN.items()}
    got["two_agent"]["gd_termination"] = "MaxIters"
    assert not _diff(got)[1]


def _diff(got):
    """The --diff report on the cases' records: one _audit line per case,
    and whether every case equals its golden record, so that none needs a
    re-record."""
    lines = [f"{name}: {_audit(record, GOLDEN[name])}" for name, record in got.items()]
    return lines, all(record == GOLDEN[name] for name, record in got.items())


def _audit(got, want):
    """One line comparing a case with its golden record: whether each
    discrete field matches, the count of each step kind, old -> new, when
    the step kinds differ, and the largest relative change of the final
    iterate and objective values."""
    fields = [k for k in ("iterations", "termination", "kinds", "gd_termination")
              if k in want or k in got]
    marks = " ".join(f"{k}={'same' if got.get(k) == want.get(k) else 'DIFFERS'}"
                     for k in fields)
    if got["kinds"] != want["kinds"]:
        counts = " ".join(f"{kind}={want['kinds'].count(c)}->{got['kinds'].count(c)}"
                          for kind, c in LETTER.items())
        marks = marks.replace("kinds=DIFFERS", f"kinds=DIFFERS {counts}")
    keys = [k for k in ("final_f", "gd_final_f") if k in want and k in got]
    old = [float(v) for v in want["final_x"]] + [float(want[k]) for k in keys]
    new = [float(v) for v in got["final_x"]] + [float(got[k]) for k in keys]
    if len(old) != len(new):
        return f"{marks} final_x=DIFFERS in length"
    rel = max(abs(n - o) / abs(o) if o != 0.0 else abs(n) for o, n in zip(old, new))
    return f"{marks} max_rel_change={rel:.3g}"


if __name__ == "__main__":
    import sys
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        got = {name: case(Path(d) / name) for name, case in CASES.items()}
        if "--diff" in sys.argv[1:]:
            lines, same = _diff(got)
            print("\n".join(lines))
            sys.exit(0 if same else 1)
        print(json.dumps(got, indent=1))
