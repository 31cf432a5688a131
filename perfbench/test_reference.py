"""Tests of the benchmark's reference evaluator and of its answer checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The reference tests use facts that do not come from the program: the
paper's Figure 1 answer worked out by hand, the distances planted by the
input generator, and the symmetry of the meet.  CheckFailureTest runs
the benchmark with a corrupted expectation or query; run.py builds the
program in Release on first use.
"""

import json
import os
import random
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import reference  # noqa: E402

# The document of the paper's Figure 1.
FIGURE_1 = """<bibliography><institute>
<article key="BB99"><author><firstname>Ben</firstname><lastname>Bit</lastname>
</author><title>How to Hack</title><year>1999</year></article>
<article key="BK99"><author>Bob Byte</author><title>Hacking &amp; RSI</title>
<year>1999</year></article>
</institute></bibliography>"""


def meet(a_terms, b_terms, pattern, **kwargs):
    return inputs.meet_query(
        pattern, [("contains", t) for t in a_terms],
        pattern, [("contains", t) for t in b_terms], **kwargs)


class ReferenceTest(unittest.TestCase):
    def test_figure_1_answer_is_the_single_article(self):
        doc = reference.load_xml_text("bib", FIGURE_1)
        rows = reference.evaluate(
            [doc], meet(["Bit"], ["1999"], "bibliography//cdata"))
        # Pre-order: 0 bibliography, 1 institute, 2 article BB99.  'Bit'
        # is 3 edges below the article, its year text 2: distance 5.
        self.assertEqual(rows, [["bib", "article",
                                 "bibliography/institute/article", "o2",
                                 "5", "2"]])

    def test_figure_1_lone_year_is_consumed_by_nothing(self):
        # The second article's year climbs alone to the root and yields
        # no meet; excluding the root changes nothing.
        doc = reference.load_xml_text("bib", FIGURE_1)
        plain = reference.evaluate(
            [doc], meet(["Bit"], ["1999"], "bibliography//cdata"))
        excluded = reference.evaluate(
            [doc], meet(["Bit"], ["1999"], "bibliography//cdata",
                        exclude=["bibliography"]))
        self.assertEqual(plain, excluded)

    def test_same_text_matched_twice_is_its_own_meet(self):
        doc = reference.load_xml_text("bib", FIGURE_1)
        rows = reference.evaluate(
            [doc], meet(["Bob"], ["Byte"], "bibliography//cdata"))
        self.assertEqual([r[1] for r in rows], ["cdata"])
        self.assertEqual(rows[0][4:], ["0", "2"])

    def test_planted_figure_6_distances(self):
        xml_text = inputs.multimedia_xml(random.Random(5), items=40)
        doc = reference.load_xml_text("media", xml_text)
        for _, query in inputs.fig6_queries():
            rows = reference.evaluate([doc], query)
            self.assertEqual(len(rows), 1, reference.render(query))
            planted = int(query["vars"][0][2][0][1][3:5])
            self.assertEqual(int(rows[0][4]), planted)

    def test_meet_is_symmetric(self):
        rng = random.Random(11)
        doc = reference.load_xml_text("d", inputs.dblp_xml(rng, 2, 6, 2))
        for _ in range(20):
            a = rng.choice(inputs.SURNAMES + inputs.TITLE_WORDS)
            b = str(rng.choice(inputs.YEARS))
            ab = reference.evaluate(
                [doc], meet([a], [b], "dblp//cdata", exclude=["dblp"]))
            ba = reference.evaluate(
                [doc], meet([b], [a], "dblp//cdata", exclude=["dblp"]))
            self.assertEqual(ab, ba)

    def test_within_bounds_the_witness_distance(self):
        rng = random.Random(3)
        doc = reference.load_xml_text("d", inputs.dblp_xml(rng, 2, 6, 2))
        query = meet(["ICDE"], ["1990"], "dblp//cdata", within=4)
        rows = reference.evaluate([doc], query)
        self.assertTrue(rows)
        self.assertTrue(all(int(r[4]) <= 4 for r in rows))

    def test_path_patterns(self):
        steps = reference.parse_pattern("dblp//year/cdata")
        self.assertTrue(reference.pattern_matches(
            steps, ("dblp", "article", "year", "cdata")))
        self.assertFalse(reference.pattern_matches(
            steps, ("dblp", "article", "title", "cdata")))
        self.assertTrue(reference.pattern_matches(
            reference.parse_pattern("dblp"), ("dblp",)))
        self.assertFalse(reference.pattern_matches(
            reference.parse_pattern("dblp"), ("dblp", "article")))

    def test_answer_check_rejects_a_perturbed_answer(self):
        doc = reference.load_xml_text("bib", FIGURE_1)
        either = ("or", ("contains", "Bit"), ("contains", "Bob"))
        rows = reference.evaluate([doc], inputs.meet_query(
            "bibliography//cdata", [either],
            "bibliography//cdata", [("contains", "1999")]))
        self.assertEqual(len(rows), 2)
        self.assertTrue(reference.rows_equal(rows, [list(r) for r in rows]))
        wrong_cell = [list(r) for r in rows]
        wrong_cell[0][4] = str(int(wrong_cell[0][4]) + 1)
        self.assertFalse(reference.rows_equal(rows, wrong_cell))
        self.assertFalse(reference.rows_equal(rows, rows[:-1]))
        self.assertFalse(reference.rows_equal(rows, rows[::-1]))


class CheckFailureTest(unittest.TestCase):
    """Each workload's check turns a run incorrect when the expected
    answer it checks against is wrong, or when the program rejects an
    operation; the run then exits 2 after its result line."""

    def run_perturbed(self, workload, perturb):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "7", "--seconds", "1", "--perturb", perturb],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 2, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_answer_check_can_fail(self):
        for workload, perturb in [("serve", "rows"), ("query", "rows"),
                                  ("cold_open", "rows"),
                                  ("cold_open", "names"),
                                  ("ingest", "rows"), ("ingest", "nodes")]:
            with self.subTest(workload=workload, perturb=perturb):
                result = self.run_perturbed(workload, perturb)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 0)

    def test_a_rejected_operation_makes_the_run_incorrect(self):
        for workload in ["serve", "query", "cold_open"]:
            with self.subTest(workload=workload):
                result = self.run_perturbed(workload, "error")
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
