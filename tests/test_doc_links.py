"""``tools/check_doc_links.py``: symbol anchors resolve, line anchors fail.

Doc anchors name symbols (``path.py::Name``), which the checker resolves
with ``ast`` against the working tree.  A ``path:N`` line anchor is
rejected outright: it "resolves" as long as line N exists, even after an
edit moved the code it meant to point at.
"""

from __future__ import annotations

from tools import check_doc_links as checker

GOOD = "`src/repro/contracts/tariffs.py::FixedTariff`"
LINE = "`src/repro/contracts/tariffs.py:51`"
MISSING = "`src/repro/contracts/tariffs.py::NoSuchTariff`"


def _failures(tmp_path, text):
    doc = tmp_path / "doc.md"
    doc.write_text(text, encoding="utf-8")
    return checker.check_file(doc, {})


class TestSymbolAnchors:
    def test_fixture_flags_the_line_anchor_and_the_missing_symbol(self, tmp_path):
        failures = _failures(
            tmp_path,
            f"| good | {GOOD} |\n| line | {LINE} |\n| missing | {MISSING} |\n",
        )
        assert len(failures) == 2, failures
        line_failure, missing_failure = failures
        assert line_failure.endswith(
            f"doc.md:2: {LINE}: line anchors drift with every edit; "
            "name the symbol as `path.py::Name`"
        )
        assert missing_failure.endswith(
            f"doc.md:3: {MISSING}: src/repro/contracts/tariffs.py "
            "defines no `NoSuchTariff`"
        )

    def test_methods_continuations_and_pytest_ids_resolve(self, tmp_path):
        text = (
            "`src/repro/contracts/billing.py::BillingEngine.bill_population`, "
            "`::BillingEngine.bill`, `src/repro/survey/sites.py::TABLE1_ROWS` "
            "and `test_shards.py::TestShardJournalCorruption::"
            "test_torn_final_line_is_dropped_and_resumed`\n"
        )
        assert _failures(tmp_path, text) == []

    def test_unbound_continuation_and_unknown_file_fail(self, tmp_path):
        failures = _failures(
            tmp_path, "`::FixedTariff` then `src/repro/no_such_module.py::X`\n"
        )
        assert [f.split(": ", 2)[2] for f in failures] == [
            "continuation `::Name` anchor has no preceding file on this line",
            "target file src/repro/no_such_module.py does not exist",
        ]

    def test_anchors_inside_code_fences_are_not_checked(self, tmp_path):
        assert _failures(tmp_path, f"```\n{LINE} {MISSING}\n```\n") == []


class TestRepositoryDocs:
    def test_readme_and_docs_resolve(self, capsys):
        assert checker.main([]) == 0
        assert "all resolve" in capsys.readouterr().out
