"""Self-test of the repo-invariant linter (``tools/lint_invariants.py``).

Seeds each rule's violation into a scratch tree mirroring the repo
layout and asserts the linter finds exactly the planted findings — then
asserts the real tree is clean, which is the check CI enforces.
"""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from lint_invariants import Violation, lint_paths  # noqa: E402


def _plant(root: Path, relative: str, source: str) -> Path:
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


def _rules(violations):
    return sorted(violation.rule for violation in violations)


class TestNoPickle:
    def test_import_pickle_in_exec_flagged(self, tmp_path):
        _plant(tmp_path, "src/repro/exec/bad.py", "import pickle\n")
        found = lint_paths([tmp_path / "src"], root=tmp_path)
        assert _rules(found) == ["no-pickle"]
        assert found[0].path == "src/repro/exec/bad.py"
        assert found[0].line == 1

    def test_from_pickle_in_service_flagged(self, tmp_path):
        _plant(tmp_path, "src/repro/service/bad.py",
               "from pickle import loads\n")
        found = lint_paths([tmp_path / "src"], root=tmp_path)
        assert _rules(found) == ["no-pickle"]

    def test_pickle_outside_wire_scopes_allowed(self, tmp_path):
        # The sim layer may pickle (decoded programs ship to pool workers).
        _plant(tmp_path, "src/repro/sim/ok.py", "import pickle\n")
        assert lint_paths([tmp_path / "src"], root=tmp_path) == []


class TestUnseededRandom:
    def test_module_level_random_in_sim_flagged(self, tmp_path):
        _plant(tmp_path, "src/repro/sim/bad.py",
               "import random\n\n\ndef draw():\n"
               "    return random.randrange(4)\n")
        found = lint_paths([tmp_path / "src"], root=tmp_path)
        assert _rules(found) == ["unseeded-random"]
        assert "random.randrange" in found[0].message

    def test_seeded_random_instance_allowed(self, tmp_path):
        _plant(tmp_path, "src/repro/sim/ok.py",
               "import random\n\n\ndef draw(seed):\n"
               "    return random.Random(seed).randrange(4)\n")
        assert lint_paths([tmp_path / "src"], root=tmp_path) == []

    def test_time_time_in_compiler_flagged(self, tmp_path):
        _plant(tmp_path, "src/repro/compiler/bad.py",
               "import time\n\n\ndef stamp():\n    return time.time()\n")
        found = lint_paths([tmp_path / "src"], root=tmp_path)
        assert _rules(found) == ["unseeded-random"]

    def test_os_urandom_in_campaign_flagged(self, tmp_path):
        _plant(tmp_path, "src/repro/core/campaign.py",
               "import os\n\n\ndef entropy():\n    return os.urandom(8)\n")
        found = lint_paths([tmp_path / "src"], root=tmp_path)
        assert _rules(found) == ["unseeded-random"]

    def test_time_in_service_allowed(self, tmp_path):
        # Wall clock is fine outside record-determining modules (the
        # daemon timestamps jobs, for example).
        _plant(tmp_path, "src/repro/service/ok.py",
               "import time\n\n\ndef stamp():\n    return time.time()\n")
        assert lint_paths([tmp_path / "src"], root=tmp_path) == []


class TestUnorderedSetIteration:
    def test_for_over_set_literal_in_to_json_flagged(self, tmp_path):
        _plant(tmp_path, "src/repro/core/bad.py",
               "def to_json(self):\n"
               "    out = []\n"
               "    for item in {1, 2, 3}:\n"
               "        out.append(item)\n"
               "    return out\n")
        found = lint_paths([tmp_path / "src"], root=tmp_path)
        assert _rules(found) == ["unordered-set-iteration"]

    def test_comprehension_over_set_call_in_encode_flagged(self, tmp_path):
        _plant(tmp_path, "src/repro/core/bad.py",
               "def encode_rows(rows):\n"
               "    return [row for row in set(rows)]\n")
        found = lint_paths([tmp_path / "src"], root=tmp_path)
        assert _rules(found) == ["unordered-set-iteration"]

    def test_set_algebra_in_store_meta_flagged(self, tmp_path):
        _plant(tmp_path, "src/repro/core/bad.py",
               "def store_meta(a, b):\n"
               "    return [key for key in set(a) | set(b)]\n")
        found = lint_paths([tmp_path / "src"], root=tmp_path)
        assert _rules(found) == ["unordered-set-iteration"]

    def test_sorted_set_in_codec_allowed(self, tmp_path):
        _plant(tmp_path, "src/repro/core/ok.py",
               "def to_json(self):\n"
               "    return [item for item in sorted({3, 1, 2})]\n")
        assert lint_paths([tmp_path / "src"], root=tmp_path) == []

    def test_set_iteration_outside_codec_allowed(self, tmp_path):
        _plant(tmp_path, "src/repro/core/ok.py",
               "def solve(worklist):\n"
               "    for node in {1, 2, 3}:\n"
               "        worklist.append(node)\n")
        assert lint_paths([tmp_path / "src"], root=tmp_path) == []


class TestNoDynamicCode:
    def test_exec_in_sim_flagged(self, tmp_path):
        _plant(tmp_path, "src/repro/sim/bad.py",
               "def run(source):\n    exec(source)\n")
        found = lint_paths([tmp_path / "src"], root=tmp_path)
        assert _rules(found) == ["no-dynamic-code"]
        assert found[0].line == 2

    def test_eval_and_compile_anywhere_in_package_flagged(self, tmp_path):
        _plant(tmp_path, "src/repro/exec/bad.py",
               "def decode(text):\n    return eval(text)\n")
        _plant(tmp_path, "src/repro/core/bad.py",
               "def build(text):\n    return compile(text, 'x', 'exec')\n")
        found = lint_paths([tmp_path / "src"], root=tmp_path)
        assert _rules(found) == ["no-dynamic-code", "no-dynamic-code"]

    def test_builtins_attribute_flagged(self, tmp_path):
        _plant(tmp_path, "src/repro/service/bad.py",
               "import builtins\n\n\ndef run(text):\n"
               "    builtins.exec(text)\n")
        found = lint_paths([tmp_path / "src"], root=tmp_path)
        assert _rules(found) == ["no-dynamic-code"]

    def test_semantics_table_exempt(self, tmp_path):
        _plant(tmp_path, "src/repro/sim/semantics.py",
               "SOURCE = 'x = 1'\nexec(compile(SOURCE, 'x', 'exec'), {})\n")
        assert lint_paths([tmp_path / "src"], root=tmp_path) == []

    def test_method_named_compile_allowed(self, tmp_path):
        _plant(tmp_path, "src/repro/compiler/ok.py",
               "import re\n\n\ndef build(driver):\n"
               "    driver.compile()\n    return re.compile('x')\n")
        assert lint_paths([tmp_path / "src"], root=tmp_path) == []


class TestAppConstruction:
    def test_create_app_outside_apps_flagged(self, tmp_path):
        _plant(tmp_path, "src/repro/experiments/bad.py",
               "from ..apps import create_app\n\n\ndef suite():\n"
               "    return {'adpcm': create_app('adpcm', samples=400)}\n")
        found = lint_paths([tmp_path / "src"], root=tmp_path)
        assert _rules(found) == ["app-construction"]
        assert found[0].path == "src/repro/experiments/bad.py"
        assert found[0].line == 5

    def test_class_constructors_flagged(self, tmp_path):
        _plant(tmp_path, "src/repro/service/bad.py",
               "from ..apps import registry\n"
               "from ..apps.mcf.app import McfApp\n\n\n"
               "def build(name, params):\n"
               "    return (McfApp(trips=6), registry.SusanApp(),\n"
               "            registry.app_class(name)(**params))\n")
        found = lint_paths([tmp_path / "src"], root=tmp_path)
        assert _rules(found) == ["app-construction"] * 3

    def test_apps_package_and_class_lookups_allowed(self, tmp_path):
        _plant(tmp_path, "src/repro/apps/registry.py",
               "def create_app(name, **kwargs):\n"
               "    return app_class(name)(**kwargs)\n")
        _plant(tmp_path, "src/repro/experiments/ok.py",
               "from ..apps import app_class, suite_apps\n\n\n"
               "def axis(name):\n"
               "    return (app_class(name).default_error_sweep,\n"
               "            suite_apps('small')[name])\n")
        assert lint_paths([tmp_path / "src"], root=tmp_path) == []


def test_multiple_violations_sorted_by_location(tmp_path):
    _plant(tmp_path, "src/repro/exec/bad.py",
           "import pickle\n\n\ndef to_json(x):\n"
           "    return [v for v in set(x)]\n")
    found = lint_paths([tmp_path / "src"], root=tmp_path)
    assert _rules(found) == ["no-pickle", "unordered-set-iteration"]
    assert [violation.line for violation in found] == [1, 5]
    assert all(isinstance(violation, Violation) for violation in found)


def test_real_tree_is_clean():
    """The invariant CI enforces: the shipped source has no findings."""
    assert lint_paths([REPO_ROOT / "src" / "repro"], root=REPO_ROOT) == []


def test_cli_exit_codes(tmp_path):
    clean = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "lint_invariants.py"),
         "src/repro"],
        cwd=REPO_ROOT, capture_output=True, text=True)
    assert clean.returncode == 0, clean.stdout + clean.stderr
    assert "invariants hold" in clean.stdout

    _plant(tmp_path, "src/repro/exec/bad.py", "import pickle\n")
    dirty = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "lint_invariants.py"),
         "src"],
        cwd=tmp_path, capture_output=True, text=True)
    assert dirty.returncode == 1
    assert "no-pickle" in dirty.stdout
