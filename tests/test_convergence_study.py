import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "convergence_study.py"


def load_script():
    spec = importlib.util.spec_from_file_location("convergence_study", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_convergence_study_prints_two_ratio_lines_per_order(capsys):
    load_script().run(orbits=1, samples=9, a=7000.0, e=0.01, i=0.5)
    out = capsys.readouterr().out
    sections = out.split("== order ")[1:]
    assert [s.split(" ==")[0] for s in sections] == ["1", "2"]
    for section in sections:
        ratios = [ln for ln in section.splitlines() if ln.strip().startswith("ratio step")]
        assert len(ratios) == 2
