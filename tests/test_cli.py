import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fixture_profile as tables

REPO = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).parent / "fixtures" / "minilang"


def run_cli(args, cwd, env_extra=None, check=True):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env.setdefault("SOURCE_DATE_EPOCH", "1700000000")
    env.update(env_extra or {})
    proc = subprocess.run([sys.executable, "-m", "voltpick", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)
    if check and proc.returncode != 0:
        raise AssertionError(
            f"voltpick {' '.join(args)} failed ({proc.returncode}):\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    return proc


@pytest.fixture
def workdir(tmp_path):
    for name in ("inventory.mini", "report.mini"):
        shutil.copy(FIXTURE / name, tmp_path / name)
    script = tables.build_script(runs_per_cell=2)
    (tmp_path / "script.txt").write_text("\n".join(map(str, script)) + "\n")
    return tmp_path


def build_profile_cmd(out="profile.json"):
    return ["profile", "build", "--group", "list,map,set", "--scenario", "small",
            "--elements", "16", "--reps", "8", "--runs", "2", "--warmups", "0",
            "--seed", "7", "--backend", "synthetic", "--script-file", "script.txt",
            "--out", out]


class TestProfileBuildCli:
    def test_build_writes_profile_and_jsonl_progress(self, workdir):
        proc = run_cli(build_profile_cmd(), workdir)
        doc = json.loads((workdir / "profile.json").read_text())
        assert doc["schema_version"] == 1
        assert len(doc["entries"]) == 97
        for line in proc.stderr.splitlines():
            record = json.loads(line)
            assert "event" in record

    def test_env_var_overrides_backend(self, workdir):
        proc = run_cli(build_profile_cmd(), workdir,
                       env_extra={"VOLTPICK_BACKEND": "rapl-powercap",
                                  "VOLTPICK_RAPL_ROOT": str(workdir / "missing")},
                       check=False)
        assert proc.returncode == 2  # env forced an unavailable backend

    def test_unknown_group_is_user_error(self, workdir):
        proc = run_cli(["profile", "build", "--group", "tuple",
                        "--out", "p.json"], workdir, check=False)
        assert proc.returncode == 1

    def test_zero_elements_is_user_error(self, workdir):
        cmd = build_profile_cmd()
        cmd[cmd.index("--elements") + 1] = "0"
        proc = run_cli(cmd, workdir, check=False)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "voltpick: error: scenario 'small' has 0 elements; profiling needs at least 1"
        ]
        assert not (workdir / "profile.json").exists()

    def test_profile_show_renders_grid_and_dominance(self, workdir):
        run_cli(build_profile_cmd(), workdir)
        proc = run_cli(["profile", "show", "profile.json", "--dominance"], workdir)
        assert "[list]" in proc.stdout
        assert "typed_array dominates cow_list" in proc.stdout
        assert "hash_map dominates" in proc.stdout
        assert "incomparable" in proc.stdout  # linked_list / block_deque gaps


class TestAnalyzeCli:
    def test_analyze_report(self, workdir):
        run_cli(["analyze", "--lang", "minilang", "--out", "usage.json",
                 "inventory.mini", "report.mini"], workdir)
        doc = json.loads((workdir / "usage.json").read_text())
        assert doc["schema_version"] == 1
        assert doc["loop_weight"] == 1
        assert [s["site_id"] for s in doc["sites"]] == [
            "inventory.mini:4:13", "inventory.mini:5:14", "inventory.mini:25:18",
            "report.mini:3:12", "report.mini:4:13", "report.mini:18:17",
        ]

    def test_loop_weight_flag(self, workdir):
        run_cli(["analyze", "--lang", "minilang", "--loop-weight", "10",
                 "--out", "usage10.json", "inventory.mini", "report.mini"],
                workdir)
        doc = json.loads((workdir / "usage10.json").read_text())
        first = doc["sites"][0]
        assert first["counts"]["insert(value)"] == 100
        assert first["raw_counts"]["insert(value)"] == 1

    def test_unknown_language_is_user_error(self, workdir):
        proc = run_cli(["analyze", "--lang", "klingon", "x.mini"],
                       workdir, check=False)
        assert proc.returncode == 1


class TestRecommendCli:
    def test_nan_count_is_user_error(self, workdir):
        run_cli(build_profile_cmd(), workdir)
        run_cli(["analyze", "--lang", "minilang", "--out", "usage.json",
                 "inventory.mini", "report.mini"], workdir)
        usage = workdir / "usage.json"
        usage.write_text(usage.read_text().replace('"insert(end)": 1', '"insert(end)": NaN', 1))
        assert "NaN" in usage.read_text()
        proc = run_cli(["recommend", "--profile", "profile.json", "--usage", "usage.json"],
                       workdir, check=False)
        assert proc.returncode == 1
        assert "non-standard JSON constant NaN" in proc.stderr
        assert "nan J" not in proc.stdout


class TestPipelineCli:
    def pipeline(self, workdir, tag):
        run_cli(build_profile_cmd(f"profile-{tag}.json"), workdir)
        run_cli(["analyze", "--lang", "minilang", "--out", f"usage-{tag}.json",
                 "inventory.mini", "report.mini"], workdir)
        run_cli(["recommend", "--profile", f"profile-{tag}.json",
                 "--usage", f"usage-{tag}.json", "--format", "json",
                 "--out", f"recs-{tag}.json"], workdir)
        proc = run_cli(["apply", "--recommendations", f"recs-{tag}.json",
                        "--lang", "minilang", "--dry-run",
                        "inventory.mini", "report.mini"], workdir)
        return (
            (workdir / f"profile-{tag}.json").read_bytes(),
            (workdir / f"usage-{tag}.json").read_bytes(),
            (workdir / f"recs-{tag}.json").read_bytes(),
            proc.stdout.encode(),
        )

    def test_end_to_end_deterministic(self, workdir):
        first = self.pipeline(workdir, "a")
        second = self.pipeline(workdir, "b")
        assert first == second
        assert first[3] == (FIXTURE / "expected_patch.diff").read_bytes()

    def test_recommend_table_output(self, workdir):
        run_cli(build_profile_cmd(), workdir)
        run_cli(["analyze", "--lang", "minilang", "--out", "usage.json",
                 "inventory.mini", "report.mini"], workdir)
        proc = run_cli(["recommend", "--profile", "profile.json",
                        "--usage", "usage.json"], workdir)
        assert "linked_list" in proc.stdout
        assert "aggregate:" in proc.stdout
        assert "%" in proc.stdout

    def test_apply_in_place_matches_expected(self, workdir):
        run_cli(build_profile_cmd(), workdir)
        run_cli(["analyze", "--lang", "minilang", "--out", "usage.json",
                 "inventory.mini", "report.mini"], workdir)
        run_cli(["recommend", "--profile", "profile.json", "--usage",
                 "usage.json", "--format", "json", "--out", "recs.json"],
                workdir)
        run_cli(["apply", "--recommendations", "recs.json", "--lang", "minilang",
                 "--in-place", "inventory.mini", "report.mini"], workdir)
        for name in ("inventory.mini", "report.mini"):
            assert ((workdir / name).read_text()
                    == (FIXTURE / "expected_patched" / name).read_text())

    def test_compare_identical_profiles_agree(self, workdir):
        run_cli(build_profile_cmd("p1.json"), workdir)
        run_cli(build_profile_cmd("p2.json"), workdir)
        run_cli(["analyze", "--lang", "minilang", "--out", "usage.json",
                 "inventory.mini", "report.mini"], workdir)
        proc = run_cli(["compare", "--usage", "usage.json",
                        "--profile", "p1.json", "p2.json"], workdir)
        assert "all profiles agree" in proc.stdout

    def test_compare_flipping_profile_diffs(self, workdir):
        run_cli(build_profile_cmd("p1.json"), workdir)
        doc = json.loads((workdir / "p1.json").read_text())
        for entry in doc["entries"]:
            if entry["impl"] == "hash_map" and entry["status"] == "measured":
                entry["mean_joules"] = 40
        (workdir / "p2.json").write_text(json.dumps(doc))
        run_cli(["analyze", "--lang", "minilang", "--out", "usage.json",
                 "inventory.mini", "report.mini"], workdir)
        proc = run_cli(["compare", "--usage", "usage.json",
                        "--profile", "p1.json", "p2.json"], workdir)
        assert "inventory.mini:5:14" in proc.stdout


class TestMeterCli:
    def test_selftest_synthetic(self, tmp_path):
        proc = run_cli(["meter", "selftest", "--backend", "synthetic",
                        "--script", "0,1000000", "--spans", "2"], tmp_path)
        lines = [json.loads(line) for line in proc.stdout.splitlines()]
        assert len(lines) == 2
        assert all(line["joules"] == 1.0 for line in lines)

    def test_selftest_time_power(self, tmp_path):
        proc = run_cli(["meter", "selftest", "--backend", "time-power",
                        "--power", "5", "--spans", "1"], tmp_path)
        record = json.loads(proc.stdout.splitlines()[0])
        assert record["joules"] == pytest.approx(
            5 * record["elapsed_seconds"])
        assert "estimator" in record["backend"]

    def test_selftest_unavailable_backend_exits_2(self, tmp_path):
        proc = run_cli(["meter", "selftest", "--backend", "rapl-powercap"],
                       tmp_path,
                       env_extra={"VOLTPICK_RAPL_ROOT": str(tmp_path / "no")},
                       check=False)
        assert proc.returncode == 2

    def test_bad_flags_exit_1(self, tmp_path):
        proc = run_cli(["meter", "selftest", "--backend", "wat"], tmp_path,
                       check=False)
        assert proc.returncode == 1
