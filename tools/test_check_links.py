"""Tests of tools/check_links.py's citation check.

    python3 -m unittest discover -s tools -p 'test_*.py'
"""

import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check_links  # noqa: E402


class DanglingCitationTest(unittest.TestCase):
    def test_flags_only_the_missing_document(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "docs").mkdir()
            (root / "docs" / "PRESENT.md").write_text("# here\n")
            (root / "src").mkdir()
            (root / "src" / "a.hpp").write_text(
                "// see docs/PRESENT.md, row E1\n"
                "// and docs/MISSING.md, row E2.\n")
            (root / "bench").mkdir()
            (root / "bench" / "b.cpp").write_text(
                'printf("see PRESENT.md");  // not at the root\n')
            found = [(p.relative_to(root).as_posix(), line, name)
                     for p, line, name in
                     check_links.dangling_citations(root)]
        self.assertEqual(found, [("src/a.hpp", 2, "docs/MISSING.md"),
                                 ("bench/b.cpp", 1, "PRESENT.md")])

    def test_name_must_end_the_token(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "tests").mkdir()
            (root / "tests" / "t.cpp").write_text("// x.mdx, y_md, md.txt\n")
            self.assertEqual(check_links.dangling_citations(root), [])

    def test_repo_cites_no_missing_document(self):
        self.assertEqual(check_links.dangling_citations(), [])


if __name__ == "__main__":
    unittest.main()
