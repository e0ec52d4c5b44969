"""Every DET* rule, suppression handling, and alias resolution."""

from textwrap import dedent

from repro.check import LintScope, lint_source

RESTRICTED = LintScope(restricted=True, ordered_output=True)
RELAXED = LintScope(restricted=False, ordered_output=False)


def rules(source, scope=RESTRICTED):
    return [d.rule_id for d in lint_source(dedent(source), scope=scope)]


class TestDet101WallClock:
    def test_time_module_call(self):
        source = """\
            import time
            t = time.time()
        """
        assert rules(source) == ["DET101"]

    def test_monotonic_and_perf_counter(self):
        source = """\
            import time
            a = time.monotonic()
            b = time.perf_counter_ns()
        """
        assert rules(source) == ["DET101", "DET101"]

    def test_from_import_alias_resolved(self):
        source = """\
            from time import perf_counter as pc
            t = pc()
        """
        assert rules(source) == ["DET101"]

    def test_datetime_now_through_from_import(self):
        source = """\
            from datetime import datetime
            stamp = datetime.now()
        """
        assert rules(source) == ["DET101"]

    def test_exempt_outside_restricted_packages(self):
        source = """\
            import time
            t = time.time()
        """
        assert rules(source, scope=RELAXED) == []


class TestDet102UnseededRng:
    def test_global_random_draw(self):
        source = """\
            import random
            x = random.random()
        """
        assert rules(source) == ["DET102"]

    def test_numpy_alias_resolved(self):
        source = """\
            import numpy as np
            x = np.random.rand(4)
        """
        assert rules(source) == ["DET102"]

    def test_unseeded_default_rng_flagged(self):
        source = """\
            import numpy as np
            rng = np.random.default_rng()
        """
        assert rules(source) == ["DET102"]

    def test_seeded_default_rng_sanctioned(self):
        source = """\
            import numpy as np
            rng = np.random.default_rng(1234)
            keyword = np.random.default_rng(seed=1234)
        """
        assert rules(source) == []

    def test_rng_wrapper_module_exempt(self):
        scope = LintScope(restricted=True, rng_module=True)
        source = """\
            import numpy as np
            rng = np.random.default_rng()
        """
        assert rules(source, scope=scope) == []


class TestDet103MutableDefaults:
    def test_literal_defaults(self):
        source = """\
            def f(items=[], table={}, members=set()):
                return items, table, members
        """
        assert rules(source) == ["DET103", "DET103", "DET103"]

    def test_kwonly_and_lambda_defaults(self):
        source = """\
            def g(*, acc=[]):
                return acc
            h = lambda xs=[]: xs
        """
        assert rules(source) == ["DET103", "DET103"]

    def test_applies_in_every_scope(self):
        assert rules("def f(x=[]):\n    return x",
                     scope=RELAXED) == ["DET103"]

    def test_immutable_defaults_pass(self):
        source = """\
            def f(a=None, b=(), c=0, d="x"):
                return a, b, c, d
        """
        assert rules(source) == []


class TestDet104FloatTimeEquality:
    def test_ms_equality(self):
        assert rules("ok = elapsed_ms == 5.0") == ["DET104"]

    def test_us_inequality_on_attribute(self):
        assert rules("ok = params.offset_us != other") == ["DET104"]

    def test_macrotick_names_exempt(self):
        # *_mt values are integers; exact equality is idiomatic.
        assert rules("ok = start_mt == end_mt") == []

    def test_ordering_comparisons_pass(self):
        assert rules("ok = deadline_ms <= horizon_ms") == []


class TestDet105SetIteration:
    def test_for_over_set_literal(self):
        assert rules("for x in {1, 2}:\n    print(x)") == ["DET105"]

    def test_comprehension_over_set_call(self):
        assert rules("out = [x for x in set(items)]") == ["DET105"]

    def test_dict_key_view_algebra(self):
        assert rules("for k in a.keys() - b:\n    print(k)") == ["DET105"]

    def test_set_union_binop(self):
        assert rules("for x in {1} | other:\n    print(x)") == ["DET105"]

    def test_sorted_wrapper_passes(self):
        assert rules("for x in sorted({1, 2}):\n    print(x)") == []

    def test_exempt_outside_ordered_output_paths(self):
        assert rules("for x in {1, 2}:\n    print(x)",
                     scope=RELAXED) == []


class TestSuppressions:
    def test_reasoned_suppression_silences_finding(self):
        source = """\
            import time
            t = time.time()  # lint-ok: DET101 host-side profiling only
        """
        assert rules(source) == []

    def test_det100_bare_suppression_warns(self):
        source = """\
            import time
            t = time.time()  # lint-ok: DET101
        """
        diagnostics = lint_source(dedent(source), scope=RESTRICTED)
        assert [d.rule_id for d in diagnostics] == ["DET100"]
        assert diagnostics[0].severity.name == "WARNING"

    def test_wrong_rule_id_does_not_suppress(self):
        source = """\
            import time
            t = time.time()  # lint-ok: DET102 wrong rule
        """
        assert rules(source) == ["DET101"]

    def test_comma_separated_ids(self):
        source = """\
            import time, random
            t = time.time() + random.random()  # lint-ok: DET101,DET102 why
        """
        assert rules(source) == []

    def test_det106_unknown_rule_id_is_an_error(self):
        source = """\
            import time
            t = time.time()  # lint-ok: DET101,DET9999 host profiling
        """
        diagnostics = lint_source(dedent(source), scope=RESTRICTED)
        assert [d.rule_id for d in diagnostics] == ["DET106"]
        assert diagnostics[0].severity.name == "ERROR"
        assert "DET9999" in diagnostics[0].message

    def test_det106_cross_catalogue_ids_are_known(self):
        # FRS/ANA/EFF/MDL ids come from other catalogues but are
        # still legitimate suppression targets.
        source = """\
            import time
            t = time.time()  # lint-ok: DET101,FRS101,EFF301,MDL401 ok
        """
        assert rules(source) == []

    def test_det106_unknown_id_alone_still_reports_finding(self):
        source = """\
            import time
            t = time.time()  # lint-ok: DET9999 typo'd id
        """
        assert sorted(rules(source)) == ["DET101", "DET106"]


class TestDet999SyntaxError:
    def test_unparsable_file(self):
        diagnostics = lint_source("def broken(:\n", path="bad.py")
        assert [d.rule_id for d in diagnostics] == ["DET999"]
        assert diagnostics[0].location.startswith("bad.py:")


class TestDiagnosticsOrdering:
    def test_source_order(self):
        source = """\
            import time, random

            def f(x=[]):
                return x

            a = time.time()
            b = random.random()
        """
        assert rules(source) == ["DET103", "DET101", "DET102"]

    def test_locations_carry_line_and_column(self):
        source = "import time\nt = time.time()\n"
        diagnostic = lint_source(source, path="mod.py", scope=RESTRICTED)[0]
        path, line, col = diagnostic.location.rsplit(":", 2)
        assert path == "mod.py"
        assert int(line) == 2
        assert int(col) >= 0
