"""Tests for the process-pool rules (``CC...``)."""

import textwrap

from repro.lint.concur_rules import lint_concur_source_text


def codes(text, module="repro/somemod.py"):
    report = lint_concur_source_text(textwrap.dedent(text), module)
    return [d.code for d in report.diagnostics]


class TestCC005PoolContext:
    def test_ppe_without_context(self):
        assert "CC005" in codes("""
            from concurrent.futures import ProcessPoolExecutor
            pool = ProcessPoolExecutor(max_workers=2)
        """)

    def test_ppe_with_context_ok(self):
        assert "CC005" not in codes("""
            from concurrent.futures import ProcessPoolExecutor
            from repro.eco.parallel import safe_mp_context
            pool = ProcessPoolExecutor(max_workers=2,
                                       mp_context=safe_mp_context())
        """)

    def test_multiprocessing_pool(self):
        assert "CC005" in codes("""
            import multiprocessing
            pool = multiprocessing.Pool(2)
        """)


class TestCC009StartMethod:
    def test_set_start_method(self):
        assert "CC009" in codes("""
            import multiprocessing
            multiprocessing.set_start_method("fork")
        """)

    def test_os_fork(self):
        assert "CC009" in codes("""
            import os
            os.fork()
        """)


class TestPlumbing:
    def test_syntax_error_cc000(self):
        assert codes("def broken(:\n") == ["CC000"]

    def test_merged_into_self_lint(self):
        from repro.lint.pylint_rules import lint_sources
        report = lint_sources()
        assert not [d for d in report.diagnostics
                    if d.code.startswith("CC")
                    and d.severity.value == "error"]
