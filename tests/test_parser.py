"""The token parser against the character scanner it replaced.

helpers.reference_parse reads a text one character at a time and makes an
Expr of every literal, coordinate and term.  parse must return an equal Expr
or raise the same exception class with the same message and position, on
the benchmark's texts, on printed random expressions and on fuzz strings.
The reference reads a minus glued to a powered literal as the parser does,
as a sign outside the power.
"""

import json
import random

import pytest

from mongesym.charts import J2, J20, PLANE
from mongesym.expr import Expr
from mongesym.parser import parse

from helpers import perfbench_module, random_expr, reference_parse


def outcome(parser, text, chart):
    """The Expr parser makes of text, or its error's class, text and position."""
    try:
        return parser(text, chart)
    except Exception as exc:  # any class, compared as it is
        return type(exc), str(exc), getattr(exc, "position", None)


def outcomes(texts, chart=J20):
    """(text, parse's outcome, reference_parse's outcome) for each text."""
    return [(text, outcome(parse, text, chart), outcome(reference_parse, text, chart))
            for text in texts]


def differences(texts, chart=J20):
    return [o for o in outcomes(texts, chart) if o[1] != o[2]]


def job_texts(seeds=(101, 102, 103)):
    """Every equation and field-coefficient text of the benchmark's job lists."""
    workloads = perfbench_module("workloads")
    texts = set()
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            for job in workloads.make_jobs(workload, seed):
                equation, *fields = job.argv[job.argv.index("--") + 1:]
                texts.add(equation)
                for field in fields:
                    if field.startswith("{"):
                        texts.update(json.loads(field)["coefficients"].values())
    return sorted(texts)


def test_the_benchmark_texts_parse_alike():
    texts = job_texts()
    assert len(texts) > 1000
    assert differences(texts) == []


def test_printed_random_expressions_parse_alike():
    rng = random.Random(30)
    for chart in (J20, J2, PLANE):
        texts = [str(random_expr(rng, chart)) for _ in range(300)]
        assert differences(texts, chart) == []


# single characters the scanner's predicates split differently from the
# regex classes (superscript two is a digit int() does not read, one half is
# alphanumeric but starts no name, e-acute is a letter), whitespace str.isspace
# knows, and pieces of every error: a zero denominator, spaced signs, powers
FUZZ_PIECES = ("x", "y", "y1", "y2", "z", "w", "_", "²", "½", "é", "٣",
               " ", "\t", " ", "exp(", "ln(", "(", ")", "1/0", "1/", "/", "-", "+",
               "*", "^", "^(1/3)", "^-2", "0", "1", "2", "8", "12", "3/4", "2x", "x2")


@pytest.mark.parametrize("seed", range(4))
def test_fuzz_strings_parse_or_fail_alike(seed):
    rng = random.Random(f"parser-fuzz:{seed}")
    texts = ["".join(rng.choice(FUZZ_PIECES) for _ in range(rng.randint(0, 12)))
             for _ in range(5000)]
    charts = [PLANE if rng.random() < 0.2 else J20 for _ in texts]
    assert [d for t, c in zip(texts, charts) for d in differences([t], c)] == []


def grammar_text(rng: random.Random, depth: int = 0) -> str:
    """A text that mostly parses: literals, coordinates, powers, products,
    sums, parentheses and exp/ln of polynomials."""
    def factor():
        r = rng.random()
        powers = ("2", "0", "3", "4/2")
        if r < 0.4:
            base = rng.choice(("x", "y", "y1", "y2", "z"))
            powers += ("-1", "(1/3)", "(-2/3)", "(1/2)")
        elif r < 0.65:
            base = rng.choice(("0", "1", "2", "-3", "8", "1/2", "2/4", "-4/9"))
        elif r < 0.85 and depth < 2:
            base = f"({grammar_text(rng, depth + 1)})"
            powers += ("(1/3)", "-1")
        elif depth < 2:
            base = f"{rng.choice(('exp', 'ln'))}({rng.choice(('x', 'y1 + 1', '2*y - z'))})"
        else:
            base = "y2"
        return base + "^" + rng.choice(powers) if rng.random() < 0.35 else base

    def term():
        return rng.choice(("*", " * ")).join(factor() for _ in range(rng.randint(1, 3)))

    text = rng.choice(("", "-", "+", "- ")) + term()
    for _ in range(rng.randint(0, 3)):
        text += rng.choice((" + ", " - ", "+", "-")) + term()
    return text


@pytest.mark.parametrize("seed", range(2))
def test_grammar_strings_parse_or_fail_alike(seed):
    rng = random.Random(f"parser-grammar:{seed}")
    found = outcomes([grammar_text(rng) for _ in range(600)])
    # most reach the folding and the normalization
    assert sum(type(mine) is Expr for _, mine, _ in found) > 300
    assert [o for o in found if o[1] != o[2]] == []


@pytest.mark.parametrize("text", [
    "(" * 100 + "x" + ")" * 100, "(" * 101 + "x" + ")" * 101, "exp (" * 101 + "x",
    " ln(" * 101, "x*-3", "x*- 3", "- 3^2", "-3^2", "x - -3", "1 /2", "1/ 2", "1/²",
    "1²", "٣*x", "2x", "x^4/2", "x^( -2 )", "x^(- 2)", "1/00", "ln(0)", "0^-1",
    "0*(x + y)^(1/2)*(x + y)^(99999/2)", "(x + y)^(1/2)*(x + y)^(99999/2)*0", "x" * 300,
    "1" * 5000 + "*x", "x + 1/" + "2" * 5000, "y2 + " * 2000 + "?", "   ", "x \t ",
    # a zero folded in leaves no terms to size the later products by
    "x*(x+y+y1+y2+z)^7*(x+y+y1+y2+z+1)^7", "(x+y+y1+y2+z)^7*0*(x+y+y1+y2+z+1)^7",
])
def test_edge_cases_parse_or_fail_alike(text):
    assert differences([text]) == []


@pytest.mark.parametrize("text,value", [("-3^2", -9), ("- 3^2", -9), ("2*-3^2", -18),
                                        ("-3", -3), ("-1/3^2", "-1/9")])
def test_a_glued_minus_binds_looser_than_a_power(text, value):
    # as -x^2 is -(x^2), whether or not a space follows the sign
    assert parse(text, J20) == reference_parse(text, J20) == Expr.constant(value)
