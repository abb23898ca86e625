"""``tools/make_experiments_md.py`` rewrites only what it generates."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "make_experiments_md.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("make_experiments_md", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_regenerating_the_committed_file_changes_nothing(tmp_path, capsys):
    """The committed EXPERIMENTS.md is what the tool writes: its paper
    sections match the archived results, and every hand-kept section
    after them (the per-change records) survives the rewrite."""
    committed = (ROOT / "EXPERIMENTS.md").read_text()
    copy = tmp_path / "EXPERIMENTS.md"
    copy.write_text(committed)
    load_tool().main([str(copy)])
    assert copy.read_text() == committed
    assert f"({len(committed.splitlines())} lines)" in capsys.readouterr().out


def test_hand_kept_sections_survive_behind_the_generated_prefix(tmp_path):
    tool = load_tool()
    copy = tmp_path / "EXPERIMENTS.md"
    copy.write_text("# stale\n\n## Table III — testbed feature matrix\n\nold\n\n"
                    "## Notes — kept by hand\n\nkept\n")
    tool.main([str(copy)])
    assert copy.read_text() == tool.render() + "\n## Notes — kept by hand\n\nkept\n"
