"""The long-horizon drift soak (``python -m repro.bench.soak``).

Fused drains are not bit-identical to applying their row groups one at
a time, so the long-run invariant is bounded drift against a batch
recompute, over inserts, deletes, node arrivals, a float32 store and a
durable close/reopen.
"""

from __future__ import annotations

from repro.bench.soak import (
    DRIFT_FACTOR,
    DTYPES,
    GROWTH_FACTOR,
    SoakResult,
    main,
    run_soak,
)


def test_drift_stays_bounded_over_two_thousand_updates():
    result = run_soak(updates=2000, seed=1)
    assert result.check() == []
    limit = DRIFT_FACTOR * result.bound
    assert set(result.drift) == set(DTYPES)
    for points in result.drift.values():
        assert [applied for applied, _ in points] == list(range(200, 2001, 200))
        assert all(0.0 < drift <= limit for _, drift in points)
        assert points[-1][1] <= GROWTH_FACTOR * points[0][1]


def test_check_flags_drift_growth_and_failures():
    result = SoakResult(bound=1e-4)
    result.drift = {"float64": [(10, 1e-6), (20, 2e-3)]}
    result.failures.append("float64: reopened v3 differs from live v4")
    problems = result.check()
    assert len(problems) == 3
    assert problems[0].startswith("float64: reopened")
    assert "exceeds" in problems[1]
    assert "grew 2000.0x" in problems[2]


def test_cli_exit_code_and_lines(capsys):
    assert main(["--updates", "48"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("updates      8  n=50  float64 ")
    assert out[-1] == "OK"
