import importlib.util
import math
import re
from collections import Counter
from pathlib import Path

from zeipel import checks

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "convergence_study.py"
NUMBER = r"(\d+(?:\.\d+)?(?:e[+-]\d+)?)"
LINE = re.compile(
    rf"a={NUMBER} km  e={NUMBER}  i={NUMBER} rad  order-1 ratios {NUMBER} / {NUMBER}  "
    rf"order-2 ratios {NUMBER} / {NUMBER}  order-2 max_pos_err {NUMBER} km$"
)


def load_script():
    spec = importlib.util.spec_from_file_location("convergence_study", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_convergence_study_prints_one_line_per_row(capsys):
    # one row on a tiny grid: the line names the row and gives each order's
    # two halving ratios and the order-2 error at full J2
    script = load_script()
    assert len(script.ROWS) == 7
    script.run(orbits=1, samples=9, rows=[(7000.0, 0.05, 0.5)])
    header, line = capsys.readouterr().out.splitlines()
    assert header.startswith("J2-halving position-error ratios, 1 periods, 9 samples")
    fields = [float(x) for x in LINE.match(line).groups()]
    assert fields[:3] == [7000.0, 0.05, 0.5]
    assert all(math.isfinite(x) and x > 0.0 for x in fields[3:])
    assert 3.0 < min(fields[3:5]) and max(fields[3:5]) < 5.0  # order 1: near 4
    assert fields[7] < 0.01  # km, order 2 over one period


def test_convergence_study_integrates_each_level_once(monkeypatch):
    # one row: one oracle run per J2 level, shared by both orders, one
    # analytic ephemeris per level and order, and no mean recovery, which
    # the sweep never reads
    script = load_script()
    calls = Counter()
    for name in ("propagate_oracle", "propagate_analytic", "mean_history"):
        def counted(*args, _name=name, _fun=getattr(checks, name), **kwargs):
            calls[_name] += 1
            return _fun(*args, **kwargs)

        monkeypatch.setattr(checks, name, counted)
    script.study_row(1, 9, 7000.0, 0.05, 0.5)
    assert calls == {"propagate_oracle": 3, "propagate_analytic": 6}
