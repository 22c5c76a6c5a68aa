import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from voltpick.analyzer import (
    analyze_corpus,
    load_usage_report,
    mask_text,
    report_from_dict,
    report_to_dict,
    save_usage_report,
    scan_file,
)
from voltpick.errors import MalformedReport, PatternError, UnknownIdentifier
from voltpick.languages import LanguageProfile, clike_profile, minilang_profile

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "minilang"
MINILANG = minilang_profile()
CLIKE = clike_profile()


def site_by_line(sites, line):
    return next(s for s in sites if s.line == line)


class TestMasking:
    def test_line_and_block_comments_blanked(self):
        text = 'let a = 1  # trailing note\n#[ multi\nline ]# let b = 2\n'
        masked = mask_text(text, MINILANG)
        assert "trailing" not in masked and "multi" not in masked
        assert "let b = 2" in masked
        assert masked.count("\n") == text.count("\n")
        assert len(masked) == len(text)

    def test_strings_blanked(self):
        masked = mask_text('x.push("quoted } brace")', MINILANG)
        assert "quoted" not in masked
        assert masked.startswith("x.push(")

    def test_escapes_inside_strings(self):
        masked = mask_text(r'say("a \" b") tail', MINILANG)
        assert masked.endswith(" tail")
        assert '"' not in masked


class TestScanFile:
    def test_depth_zero_counts(self):
        src = 'let xs = array_list()\nxs.push(1)\nxs.push(2)\nxs.push(3)\n'
        sites = scan_file(src, MINILANG, loop_weight=10.0)
        assert sites[0].raw_counts == {"insert(end)": 3}
        assert sites[0].op_counts == {"insert(end)": 3.0}

    def test_loop_multiplies_weight(self):
        src = ('let xs = array_list()\n'
               'for i in items {\n'
               '    xs.push(i)\n    xs.push(i)\n    xs.push(i)\n'
               '}\n')
        sites = scan_file(src, MINILANG, loop_weight=10.0)
        assert sites[0].raw_counts == {"insert(end)": 3}
        assert sites[0].op_counts == {"insert(end)": 30.0}
        assert sites[0].max_loop_depth == 1

    def test_unbound_receiver_not_counted(self):
        src = 'let xs = array_list()\nghost.push(1)\n'
        sites = scan_file(src, MINILANG)
        assert sites[0].raw_counts == {}

    def test_unknown_method_not_counted(self):
        src = 'let xs = array_list()\nxs.frobnicate(1)\n'
        sites = scan_file(src, MINILANG)
        assert sites[0].raw_counts == {}

    def test_innermost_declaration_wins(self):
        src = ('let xs = array_list()\n'
               'block() {\n'
               '    let xs = hash_set()\n'
               '    xs.add(1)\n'
               '}\n'
               'xs.push(2)\n')
        sites = scan_file(src, MINILANG)
        outer, inner = sites[0], sites[1]
        assert outer.current_impl == "array_list"
        assert inner.current_impl == "hash_set"
        assert inner.raw_counts == {"add": 1}
        assert outer.raw_counts == {"insert(end)": 1}

    def test_comment_insensitivity(self):
        src = ('let xs = array_list()\n'
               'for i in items {\n'
               '    xs.push(i)\n'
               '}\n')
        commented = ('# preamble xs.push(bogus)\n'
                     'let xs = array_list()  # site\n'
                     'for i in items {  #[ xs.pop() ]#\n'
                     '    xs.push(i)  # xs.push(also bogus)\n'
                     '}\n')
        a = scan_file(src, MINILANG, loop_weight=7.0)
        b = scan_file(commented, MINILANG, loop_weight=7.0)
        assert a[0].raw_counts == b[0].raw_counts
        assert a[0].op_counts == b[0].op_counts

    def test_loop_header_counts_at_surrounding_depth(self):
        src = ('let xs = array_list()\n'
               'while xs.has(1) {\n'
               '    xs.push(1)\n'
               '}\n')
        sites = scan_file(src, MINILANG, loop_weight=10.0)
        assert sites[0].op_counts == {"contains(value)": 1.0,
                                      "insert(end)": 10.0}

    def test_clike_profile(self):
        src = ('list xs = new array_list();\n'
               'for (item : feed) {\n'
               '    xs.add(item);\n'
               '}\n'
               'xs.remove_first();\n')
        sites = scan_file(src, CLIKE, loop_weight=10.0)
        assert sites[0].current_impl == "array_list"
        assert sites[0].raw_counts == {"insert(end)": 1, "remove(start)": 1}
        assert sites[0].op_counts == {"insert(end)": 10.0, "remove(start)": 1.0}

    def test_site_id_carries_position(self):
        sites = scan_file("let xs = array_list()\n", MINILANG, file_label="p.mini")
        assert sites[0].site_id == "p.mini:1:10"
        assert sites[0].ctor_span == (9, 19)

    @given(st.floats(min_value=1.0, max_value=50.0))
    @settings(max_examples=30)
    def test_weighted_counts_monotone_in_weight(self, weight):
        src = ('let xs = array_list()\n'
               'xs.push(0)\n'
               'for a in outer {\n'
               '    xs.push(1)\n'
               '    for b in inner {\n'
               '        xs.push(2)\n'
               '    }\n'
               '}\n')
        base = scan_file(src, MINILANG, loop_weight=1.0)
        heavy = scan_file(src, MINILANG, loop_weight=weight)
        assert base[0].op_counts["insert(end)"] == base[0].raw_counts["insert(end)"]
        assert (heavy[0].op_counts["insert(end)"]
                >= base[0].op_counts["insert(end)"])

    def test_weight_one_equals_raw(self):
        text = (FIXTURE_DIR / "inventory.mini").read_text()
        for site in scan_file(text, MINILANG, loop_weight=1.0):
            assert site.op_counts == {op: float(n)
                                      for op, n in site.raw_counts.items()}


class TestFixtureOracle:
    """The committed hand tally is the ground truth for the fixture corpus."""

    def analyze(self, loop_weight):
        paths = [FIXTURE_DIR / "inventory.mini", FIXTURE_DIR / "report.mini"]
        return analyze_corpus(paths, MINILANG, loop_weight=loop_weight)

    def oracle(self):
        return json.loads((FIXTURE_DIR / "expected_sites.json").read_text())

    def normalize(self, site):
        return {
            "file": Path(site.file).name,
            "line": site.line,
            "impl": site.current_impl,
            "api_kind": site.api_kind,
        }

    def test_raw_counts_match_hand_tally(self):
        report = self.analyze(loop_weight=1.0)
        expected = self.oracle()["sites"]
        assert len(report.sites) == len(expected)
        for site, want in zip(report.sites, expected):
            assert Path(site.file).name == want["file"]
            assert site.site_id.endswith(
                want["site_id"])  # absolute vs relative prefix
            assert self.normalize(site) == {k: want[k] for k in
                                            ("file", "line", "impl", "api_kind")}
            assert site.raw_counts == want["raw_counts"]
            assert site.max_loop_depth == want["max_loop_depth"]

    def test_weighted_counts_match_hand_tally_at_ten(self):
        report = self.analyze(loop_weight=10.0)
        for site, want in zip(report.sites, self.oracle()["sites"]):
            assert site.op_counts == {op: float(n) for op, n in
                                      want["weighted_counts_L10"].items()}


class TestAnalyzeCorpus:
    def test_empty_corpus(self):
        report = analyze_corpus([], MINILANG)
        assert report.sites == []

    def test_path_sorted_concatenation(self, tmp_path):
        (tmp_path / "b.mini").write_text("let b = hash_set()\n")
        (tmp_path / "a.mini").write_text("let a = array_list()\n")
        report = analyze_corpus([tmp_path / "b.mini", tmp_path / "a.mini"],
                                MINILANG)
        assert [Path(s.file).name for s in report.sites] == ["a.mini", "b.mini"]

    def test_equals_per_file_scans(self, tmp_path):
        files = []
        for name, body in [("x.mini", "let xs = array_list()\nxs.push(1)\n"),
                           ("y.mini", "let ys = hash_map()\nys.put(1, 2)\n")]:
            path = tmp_path / name
            path.write_text(body)
            files.append(path)
        report = analyze_corpus(files, MINILANG)
        merged = []
        for path in sorted(files):
            merged.extend(scan_file(path.read_text(), MINILANG,
                                    file_label=str(path)))
        assert [s.site_id for s in report.sites] == [s.site_id for s in merged]

    def test_unreadable_file_becomes_diagnostic(self, tmp_path):
        good = tmp_path / "ok.mini"
        good.write_text("let xs = array_list()\n")
        report = analyze_corpus([good, tmp_path / "missing.mini"], MINILANG)
        assert len(report.sites) == 1
        assert any("missing.mini" in d for d in report.diagnostics)

    def test_undecodable_file_becomes_diagnostic(self, tmp_path):
        bad = tmp_path / "bad.mini"
        bad.write_bytes(b"\xff\xfe\x00let")
        report = analyze_corpus([bad], MINILANG)
        assert report.sites == []
        assert report.diagnostics


class TestReportPersistence:
    def make_report(self):
        paths = [FIXTURE_DIR / "inventory.mini", FIXTURE_DIR / "report.mini"]
        return analyze_corpus(paths, MINILANG, loop_weight=1.0, corpus_label="fx")

    def test_round_trip(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "usage.json"
        save_usage_report(report, path)
        loaded = load_usage_report(path)
        assert report_to_dict(loaded) == report_to_dict(report)

    def test_unknown_op_rejected(self):
        doc = report_to_dict(self.make_report())
        doc["sites"][0]["counts"] = {"frobnicate": 1}
        with pytest.raises(UnknownIdentifier):
            report_from_dict(doc)

    def test_unknown_impl_rejected(self):
        doc = report_to_dict(self.make_report())
        doc["sites"][0]["impl"] = "mystery_list"
        with pytest.raises(UnknownIdentifier):
            report_from_dict(doc)

    def test_duplicate_site_rejected(self):
        doc = report_to_dict(self.make_report())
        doc["sites"].append(dict(doc["sites"][0]))
        with pytest.raises(MalformedReport):
            report_from_dict(doc)

    def test_bad_version_rejected(self):
        doc = report_to_dict(self.make_report())
        doc["schema_version"] = 99
        with pytest.raises(MalformedReport):
            report_from_dict(doc)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_count_rejected_on_load(self, tmp_path, constant):
        path = tmp_path / "usage.json"
        save_usage_report(self.make_report(), path)
        text = path.read_text()
        path.write_text(text.replace('"insert(value)": 1', f'"insert(value)": {constant}', 1))
        assert constant in path.read_text()
        with pytest.raises(MalformedReport, match=constant):
            load_usage_report(path)

    def test_non_finite_count_refused_on_save(self, tmp_path):
        report = self.make_report()
        report.sites[0].op_counts["insert(value)"] = float("nan")
        with pytest.raises(ValueError):
            save_usage_report(report, tmp_path / "usage.json")

    def test_negative_count_rejected(self):
        doc = report_to_dict(self.make_report())
        doc["sites"][0]["raw_counts"] = {"insert(end)": -1}
        with pytest.raises(MalformedReport):
            report_from_dict(doc)


class TestLanguageProfileValidation:
    def test_shipped_profiles_validate(self):
        from voltpick.groups import builtin_groups
        MINILANG.validate(builtin_groups())
        CLIKE.validate(builtin_groups())

    def test_bad_pattern_raises(self):
        profile = minilang_profile()
        profile.declaration_patterns = {"(unclosed": ("array_list", "list")}
        with pytest.raises(PatternError):
            profile.compiled_declarations()

    def test_pattern_requires_named_groups(self):
        profile = minilang_profile()
        profile.declaration_patterns = {"let x": ("array_list", "list")}
        with pytest.raises(PatternError):
            profile.compiled_declarations()

    def test_unknown_impl_in_mapping(self):
        from voltpick.groups import builtin_groups
        profile = minilang_profile()
        profile.declaration_patterns[
            r"\blet\s+(?P<name>\w+)\s*=\s*(?P<ctor>wat)\s*\("] = ("wat", "list")
        with pytest.raises(UnknownIdentifier):
            profile.validate(builtin_groups())

    def test_custom_ctor_tokens(self):
        profile = minilang_profile(ctor_tokens={"array_list": "Vec"})
        sites = scan_file("let xs = Vec()\nxs.push(1)\n", profile)
        assert sites[0].current_impl == "array_list"
        assert profile.substitution_template["array_list"] == "Vec"
