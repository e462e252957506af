"""Command-line interface: exit codes, JSON schemas, determinism."""

import json
import os
import resource
import subprocess
import sys
import time

import jsonschema
import pytest

from mongesym.cli import main

SCHEMA_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "mongesym", "schemas")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


# S1 + S3, S1 - S3 + S6 and S5 + S6 as JSON fields: dense recombinations of
# the symmetries of eq2 whose closure is all six
RECOMBINED = tuple(json.dumps({"chart": "J20", "coefficients": c}) for c in (
    {"x": "y", "y": "x", "y1": "1 - y1^2", "y2": "-3*y1*y2", "z": "1/2*x^2 + 1/2*y^2"},
    {"x": "-1*y", "y": "x", "y1": "1 + y1^2", "y2": "3*y1*y2",
     "z": "1/2*x^2 - 1/2*y^2 + 1"},
    {"y": "1", "z": "x + 1"}))


def schema(name):
    with open(os.path.join(SCHEMA_DIR, f"{name}.schema.json")) as fh:
        return json.load(fh)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _two_gigabytes():
    resource.setrlimit(resource.RLIMIT_AS, (2_000_000_000, 2_000_000_000))


def run_module(*argv, timeout=60, hash_seed=None):
    """python -m mongesym in a child process with at most 2 GB of address
    space, so that a runaway computation fails the test instead of stalling
    the suite or the machine; hash_seed, when given, is its PYTHONHASHSEED."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "mongesym", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout,
                          preexec_fn=_two_gigabytes)


class TestExitCodes:
    def test_module_entry_point(self):
        proc = run_module("catalog")
        assert proc.returncode == 0, proc.stderr
        assert "eq2" in proc.stdout

    def test_huge_power_of_a_coordinate_is_exponent_arithmetic(self):
        # answered at once, like the negative power, instead of 10^11
        # multiplications
        n = 100000000000
        for sign in (1, -1):
            proc = run_module("genericity", f"y2^{sign * n}", "--json", timeout=20)
            assert proc.returncode == 0, proc.stderr
            payload = json.loads(proc.stdout)
            assert payload["generic"] is True and payload["sign"] == 1
            power = sign * n - 2
            assert payload["frame_determinant"] == (
                f"{sign * n * (sign * n - 1)}*y2^"
                + (str(power) if power > 0 else f"({power})"))

    @pytest.mark.parametrize("equation", [
        "(2*y2)^(-100000000000)",    # a coefficient of 10^11 bits
        "(8*y2)^(100000000001/3)",   # the same through an exact root
        "(x+y)^100000",              # 100001 terms by 10^10 products
        "(x+y+y1+y2+z)^40",          # 135751 terms
    ])
    def test_huge_power_is_two(self, equation):
        proc = run_module("genericity", equation, timeout=20)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "power too large" in proc.stderr

    def test_a_huge_product_is_two(self):
        # each factor is within the power caps, at 330 and 792 terms, but
        # their product is an F of 11,166 terms that the frame's brackets
        # multiply again (over 60 s): the parser sizes it before expanding
        equation = "(x+y+y1+y2+z)^7*(x+y+y1+y2+z+1)^7"
        start = time.monotonic()
        proc = run_module("genericity", equation, timeout=20)
        assert time.monotonic() - start < 5
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            f"error: cannot interpret equation '{equation}': product too large: "
            "multiplying 330 by 792 terms takes over 20000 products (at position 15)\n")
        assert len(proc.stderr.encode()) < 300

    def test_a_large_equation_within_the_caps_is_answered(self):
        # X5 = [X2, X3]'s z entry alone took 18 s (2 cores, Python 3.11);
        # the determinant never reads it, so it is not computed
        equation = "(x+y+y1+y2+z)^11*(x+y+1)"
        start = time.monotonic()
        proc = run_module("genericity", equation, timeout=20)
        assert time.monotonic() - start < 5
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.endswith("determinant = (+1) * hessian\n"
                                    "verdict: generic off the zero locus of the printed "
                                    "expression\n")

    @pytest.mark.parametrize("depth", [250, 5000])
    @pytest.mark.parametrize("kind", ["parentheses", "exp", "field"])
    def test_deep_nesting_is_two(self, kind, depth):
        if kind == "parentheses":
            argv = ("genericity", "(" * depth + "y2" + ")" * depth)
        elif kind == "exp":
            argv = ("genericity", "exp(" * depth + "y2" + ")" * depth)
        else:
            field = {"chart": "J20",
                     "coefficients": {"x": "(" * depth + "1" + ")" * depth}}
            argv = ("verify", "eq2", json.dumps(field))
        proc = run_module(*argv, timeout=20)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "nesting deeper than 100" in proc.stderr
        assert "Traceback" not in proc.stderr

    MEGABYTE = 1 << 20
    HUGE_ARGUMENTS = {
        "equation": ("genericity", "y" * MEGABYTE),
        "equation_tail": ("structure", "y2 + " * (MEGABYTE // 5) + "?"),
        "field_json": ("verify", "eq2", json.dumps(
            {"chart": "J20", "coefficients": {"x": "x" * MEGABYTE}})),
        "field_json_syntax": ("verify", "eq2", "{" + " " * MEGABYTE),
        # json.loads raises RecursionError on the one, ValueError past
        # Python's digit limit on the other
        "field_json_depth": ("verify", "eq2", '{"chart":"J20","coefficients":'
                             + "[" * 5000 + "]" * 5000 + "}"),
        "field_json_digits": ("verify", "eq2", '{"chart":"J20","x":' + "7" * 5000 + "}"),
        "field_key": ("verify", "eq2", json.dumps(
            {"chart": "J20", "coefficients": {"q" * MEGABYTE: "1"}})),
        "field_value": ("verify", "eq2", json.dumps(
            {"chart": "J20", "coefficients": {"x": [1] * (MEGABYTE // 3)}})),
        "rational_list": ("solve", "eq2", "--offsets", "1/" * (MEGABYTE // 2)),
        "rational_digits": ("solve", "eq2", "--offsets", "1" * 5000),
        "catalog_parameter": ("genericity", "dz13(1," + "9" * 3000 + "x)"),
        "catalog_parameter_count": ("solve", "eq1(" + ",".join(["1"] * 2000) + ")"),
        "literal_root_base": ("genericity", "(" + "7" * 4000 + ")^(1/2)"),
        "literal_power_base": ("genericity", "(" + "7" * 4000 + ")^100"),
        "literal_root_order": ("genericity", "2^(1/" + "7" * 4000 + ")"),
    }

    @pytest.mark.parametrize("name", HUGE_ARGUMENTS)
    def test_a_huge_argument_gives_one_short_error_line(self, capsys, name):
        code, out, err = run(capsys, *self.HUGE_ARGUMENTS[name])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err.encode()) < 300
        assert "characters)" in err

    @pytest.mark.parametrize("name, reason", [
        ("literal_root_base", "non-rational literal power "
         f"({'7' * 40}... (4000 characters))^(1/2) (at position 4008)\n"),
        ("literal_power_base", "power too large: "
         f"({'7' * 40}... (4000 characters))^(100) has about 1328800 bits "
         "(at position 4006)\n"),
    ])
    def test_a_long_number_in_a_reason_is_cut(self, capsys, name, reason):
        code, _, err = run(capsys, *self.HUGE_ARGUMENTS[name])
        assert code == 2 and err.endswith(reason)

    N = "7" * 3000

    @pytest.mark.parametrize("argv", [
        ("genericity", "y2^(1/" + "7" * 4000 + ")"),
        ("verify", "eq2", json.dumps(
            {"chart": "J20", "coefficients": {"y2": f"{N}*{N}*y2"}})),
        ("structure", "eq2", "S1", json.dumps(
            {"chart": "J20", "coefficients": {"x": f"{N}*{N}"}})),
    ], ids=["hessian", "residual", "projection"])
    def test_a_number_past_the_digit_limit_is_two(self, capsys, argv):
        # str() of an int past sys.get_int_max_str_digits() raises
        # ValueError, a traceback with exit code 1; the limit stays as it is
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == ("error: a number has more than the "
                       f"{sys.get_int_max_str_digits()} digits Python converts to text\n")

    @pytest.mark.parametrize("equation, power, position", [
        ("2^(1/" + "7" * 30 + ")", "(2)", 36),
        ("(1/2)^(1/" + "7" * 30 + ")*y2^2", "(1/2)", 40),
    ], ids=["integer", "fraction"])
    def test_a_huge_root_order_is_a_parse_error(self, equation, power, position):
        # the floor root of n >= 2 of an order past n's bit length is 1, so
        # no Newton step raises to that order (MemoryError, exit code 1)
        proc = run_module("genericity", equation, timeout=20)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"error: cannot interpret equation '{equation}': non-rational "
                               f"literal power {power}^(1/{'7' * 30}) (at position {position})\n")

    def test_a_literal_over_the_digit_limit_names_the_limit(self, capsys):
        code, _, err = run(capsys, *self.HUGE_ARGUMENTS["rational_digits"])
        assert code == 2
        assert err.startswith(f"error: bad rational list '{'1' * 80}'... "
                              "(5000 characters): Exceeds the limit")

    @pytest.mark.parametrize("equation, message", [
        ("1" * 5000 + "*y2^2", "integer literal of 5000 digits, more than the "
         f"{sys.get_int_max_str_digits()} Python converts (at position 0)"),
        ("y2^2 + 1/" + "1" * 5000, "integer literal of 5000 digits, more than the "
         f"{sys.get_int_max_str_digits()} Python converts (at position 9)"),
        ("y2^²", "invalid integer literal '²' (at position 3)"),
    ], ids=["numerator", "denominator", "superscript"])
    def test_an_integer_int_cannot_read_is_a_parse_error(self, capsys, equation, message):
        # numerator and denominator alike: int() past the digit limit, or on
        # digits it does not read, would raise ValueError, a traceback with
        # exit code 1
        code, out, err = run(capsys, "genericity", equation)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err.encode()) < 300
        assert err.endswith(message + "\n")

    @pytest.mark.parametrize("name", ["field_json_depth", "field_json_digits"])
    @pytest.mark.parametrize("via_file", [False, True], ids=["structure", "file"])
    def test_field_json_that_json_cannot_decode_is_two(self, capsys, tmp_path, name, via_file):
        # on verify, test_a_huge_argument_gives_one_short_error_line
        text = self.HUGE_ARGUMENTS[name][2]
        if via_file:
            path = tmp_path / "field.json"
            path.write_text(text)
            text = f"@{path}"
        code, out, err = run(capsys, "structure", "eq2", "S1", text)
        assert (code, out) == (2, "")
        assert err.startswith("error: bad field JSON ") and err.count("\n") == 1
        assert len(err.encode()) < 300

    def test_a_huge_rejected_field_gives_one_short_line(self, capsys):
        # structure names a field that is not a symmetry through quoted
        x = " + ".join(f"{k}*x^{k}*y1" for k in range(1, 2001))
        field = json.dumps({"chart": "J20", "coefficients": {"x": x}})
        code, out, err = run(capsys, "structure", "eq2", field)
        assert code == 1 and out == ""
        assert err.startswith("field ") and err.count("\n") == 1
        assert len(err.encode()) < 300
        assert err.endswith(" is not a symmetry of 'eq2'\n")

    @pytest.mark.parametrize("argv, message", [
        (("genericity", "w"), "error: cannot interpret equation 'w': unknown "
         "identifier 'w' in chart J20 (at position 0)\n"),
        (("verify", "eq2", '{"chart":"J20","coefficients":{"x":1}}'),
         'error: bad field JSON \'{"chart":"J20","coefficients":{"x":1}}\': '
         "the coefficient of x is 1, not a string\n"),
        (("solve", "eq2", "--offsets", "0,a"),
         "error: bad rational list '0,a': Invalid literal for Fraction: 'a'\n"),
        # the base of a non-rational power is printed in parentheses
        (("genericity", "(1/2)^(1/2)"), "error: cannot interpret equation "
         "'(1/2)^(1/2)': non-rational literal power (1/2)^(1/2) (at position 11)\n"),
        (("genericity", "(-1/8)^(1/2)"), "error: cannot interpret equation "
         "'(-1/8)^(1/2)': non-rational literal power (-1/8)^(1/2) (at position 12)\n"),
        (("solve", "eq2", "--rates", "1/0"), "error: bad rational list '1/0': zero denominator\n"),
        (("verify", "eq2", "S7"),
         "error: cannot interpret field 'S7' (not a catalog key and not JSON)\n"),
    ])
    def test_a_short_argument_is_quoted_whole(self, capsys, argv, message):
        code, _, err = run(capsys, *argv)
        assert (code, err) == (2, message)

    def test_verify_pass_is_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "eq2", "S1", "S2", "S3", "S4", "S5", "S6")
        assert code == 0
        assert "all pass" in out

    def test_verify_fail_is_one(self, capsys):
        code, out, _ = run(capsys, "verify", "eq2",
                           '{"chart":"J20","coefficients":{"y":"1"}}')
        assert code == 1

    def test_unknown_key_is_two(self, capsys):
        code, _, err = run(capsys, "verify", "nosuch(1,2,3)^^", "S1")
        assert code == 2

    def test_parse_error_is_two(self, capsys):
        code, _, err = run(capsys, "genericity", "y + *")
        assert code == 2

    def test_usage_error_is_two(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("flags", [
        ("--degree", "-1"),
        ("--offsets", "1/3"),
        ("--rates", "1/2"),
        ("--degree", "100000"),  # about 4e23 unknowns: refused before any work
    ])
    def test_bad_solve_arguments_are_two(self, capsys, flags):
        code, out, err = run(capsys, "solve", *flags, "--", "y2^2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    # y2^(q+k) * m and y2^q * (y2^k * m) would be one function in two
    # columns, so such offsets would put zero fields into the kernel
    @pytest.mark.parametrize("equation,degree,offsets,pair", [
        ("flat", "2", "0,1", "0 and 1"),
        ("eq2", "2", "0,1/3,4/3", "1/3 and 4/3"),
        ("y2^(1/3)", "4", "-2/3,-1/3,0,1/3,2/3", "-2/3 and 1/3"),
    ])
    def test_offsets_that_differ_by_an_integer_are_two(self, capsys, equation, degree,
                                                       offsets, pair):
        code, out, err = run(capsys, "solve", "--degree", degree, "--offsets", offsets,
                             "--", equation)
        assert (code, out) == (2, "")
        assert err == (f"error: offsets {pair} differ by an integer, "
                       "so one function would get two columns\n")

    @pytest.mark.parametrize("equation,message", [
        ("dz13(1/0,1)", "non-rational parameter in 'dz13(1/0,1)'"),
        ("dz13(1,2,3)", "'dz13(1,2,3)' has 3 parameters, where dz13 takes 2"),
        ("eq1()", "'eq1()' has 0 parameters, where eq1 takes 1"),
    ])
    def test_a_catalog_family_with_bad_parameters_is_two(self, capsys, equation, message):
        # the catalog's own message, not the parser's "unknown identifier"
        code, out, err = run(capsys, "solve", "--degree", "1", "--", equation)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_a_call_outside_the_catalog_still_parses(self, capsys):
        code, out, err = run(capsys, "genericity", "exp(y2)")
        assert (code, err) == (0, "")
        assert out.startswith("equation: exp(y2)\n")

    @pytest.mark.parametrize("field", [
        '{"chart":"J20","coefficients":{"w":"1"}}',  # not a coordinate
        '{"chart":"J2","coefficients":{"z":"1"}}',  # not on this chart
        '{"chart":"J2","coefficients":{"x":"1"}}',  # on J2, not J20
        '{"chart":["J20"]}',                         # chart not a name
        "equiaffine1",                               # catalog field on J2
        '{"chart": ',                                # malformed JSON
        '{"chart":"J20","coefficients":{"x":1}}',    # not a string
        '{"chart":"J20","coefficients":["x"]}',      # not an object
        '{"chart":"J20","coefficient":{"x":"1"}}',   # misspelled key
        '{"chart":"J20"}',                           # no coefficients
        "@no/such/field.json",                       # missing file
    ])
    def test_bad_field_is_two(self, capsys, field):
        code, out, err = run(capsys, "verify", "eq2", field)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_explicit_empty_coefficients_are_the_zero_field(self, capsys):
        field = '{"chart":"J20","coefficients":{}}'
        code, out, err = run(capsys, "verify", "eq2", field, "--json")
        assert (code, err) == (0, "")
        assert [f["symmetry"] for f in json.loads(out)["fields"]] == [True]

    def test_structure_field_off_j20_is_two(self, capsys):
        code, out, err = run(capsys, "structure", "eq2", "equiaffine4")
        assert code == 2
        assert out == ""
        assert err == "error: field 'equiaffine4' is not on chart J20\n"

    def test_unwritable_out_is_two(self, capsys, tmp_path):
        path = tmp_path / "no" / "such" / "report.json"
        code, out, err = run(capsys, "genericity", "flat", "--json", "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_negative_structure_cap_is_two(self, capsys):
        code, out, err = run(capsys, "structure", "eq2", "--cap", "-1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_structure_past_the_cap_is_one(self, capsys):
        code, out, err = run(capsys, "structure", "eq2", "--cap", "3")
        assert (code, out, err) == (1, "", "dimension exceeded cap 3\n")


class TestSchemas:
    def test_genericity_json(self, capsys):
        code, out, _ = run(capsys, "genericity", "eq2", "--json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema("genericity"))
        assert payload["hessian"] == "-2/9*y2^(-5/3)"
        assert payload["sign"] == 1

    def test_verify_json(self, capsys):
        code, out, _ = run(capsys, "verify", "eq2", "S1", "S6", "--json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema("verify"))
        assert payload["all_pass"]

    def test_structure_json(self, capsys):
        code, out, _ = run(capsys, "structure", "eq2", "--json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema("structure"))
        assert payload["structure"]["verdict"] == "sl2_semidirect_heisenberg"
        assert payload["projection"]["kernel_indices"] == [5]

    def test_structure_json_with_timings(self, capsys):
        code, out, _ = run(capsys, "structure", "eq2", "--json", "--timings")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema("structure"))
        assert set(payload["stage_timings"]) == {
            "load_s", "symmetry_check_s", "closure_s", "analyze_s", "projection_s"}
        code, out, _ = run(capsys, "structure", "eq2", "--json")
        assert "stage_timings" not in json.loads(out)

    def test_structure_closure_counts(self, capsys):
        # three recombinations of S1..S6 (18 terms) that close to all six:
        # the six fields of the sparse basis are bracketed pairwise, and each
        # of the three brackets that join the basis once more
        argv = ("structure", "eq2", *RECOMBINED, "--json")
        code, out, _ = run(capsys, *argv, "--timings")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema("structure"))
        assert payload["dimension"] == 6
        closure = payload["closure"]
        assert closure["symbolic_brackets"] == 6 * 5 // 2 + 3
        assert closure["input_terms"] == 7 + 8 + 3
        assert closure["sparse_terms"] > 0
        code, plain, _ = run(capsys, *argv)
        del payload["closure"], payload["stage_timings"]
        assert json.loads(plain) == payload

    @pytest.mark.parametrize("command, argv, stages", [
        ("verify", ("eq2", "S1", "S6"), {"load_s", "residuals_s", "report_s"}),
        ("genericity", ("eq2",), {"load_s", "frame_s", "determinant_s", "report_s"}),
        ("reproduce", (), {"symmetry_s", "structure_s", "genericity_s", "solve_s",
                           "maximality_s", "grammar_s"}),
    ])
    def test_json_with_timings(self, capsys, command, argv, stages):
        code, out, _ = run(capsys, command, *argv, "--json", "--timings")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema(command))
        assert set(payload["stage_timings"]) == stages
        code, plain, _ = run(capsys, command, *argv, "--json")
        del payload["stage_timings"]
        assert json.loads(plain) == payload

    def test_timings_resolve_a_stage_shorter_than_a_millisecond(self, capsys):
        code, out, _ = run(capsys, "verify", "eq2", "--json", "--timings")
        assert code == 0
        assert json.loads(out)["stage_timings"]["residuals_s"] > 0

    @pytest.mark.parametrize("field, dimension", [
        ('{"chart":"J20","coefficients":{}}', 0), ("S6", 1)])
    def test_structure_of_the_smallest_algebras(self, capsys, field, dimension):
        code, out, _ = run(capsys, "structure", "eq2", field, "--json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema("structure"))
        assert payload["structure"]["dimension"] == dimension
        assert payload["structure"]["killing"]["matrix"] == [["0"] * dimension] * dimension

    def test_structure_whose_projection_is_undefined(self, capsys):
        # a symmetry of flat from the basis of solve flat --degree 3 whose
        # y-coefficient depends on z, so its pushforward to J2 is undefined
        field = json.dumps({"chart": "J20", "coefficients": {
            "x": "6*y2", "y": "6*y1*y2 - 3*z", "y1": "3*y2^2", "z": "2*y2^3"}})
        reason = "coefficient 6*y1*y2 - 3*z depends on z; pushforward undefined"
        code, out, err = run(capsys, "structure", "flat", field)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == f"projection: undefined ({reason})"
        code, out, _ = run(capsys, "structure", "flat", field, "--json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema("structure"))
        assert payload["projection"] == {"projectable": False, "reason": reason}

    def test_solve_json(self, capsys):
        code, out, _ = run(capsys, "solve", "eq2", "--degree", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema("solve"))
        assert payload["table"][-1]["dimension"] == 6
        assert "timings" not in payload
        assert "stage_timings" not in payload
        assert "elimination" not in payload

    def test_solve_json_with_timings(self, capsys):
        code, out, _ = run(capsys, "solve", "flat", "--degree", "1", "--json", "--timings")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema("solve"))
        assert "timings" in payload
        assert set(payload["stage_timings"]) == {
            "operator_s", "rows_s", "elimination_s", "assemble_verify_s"}
        assert set(payload["elimination"]) == {
            "rows", "forced_columns", "surviving_rows", "pivots", "pivot_nonzeros",
            "max_pivot_bits"}

    def test_catalog_json(self, capsys):
        code, out, _ = run(capsys, "catalog", "--json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema("catalog"))
        assert set(payload["fields"]) >= {f"S{i}" for i in range(1, 7)}


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("genericity", "eq2", "--json"),
        ("verify", "eq2", "S1", "S2", "--json"),
        ("structure", "eq2", "--json"),
        ("solve", "eq2", "--degree", "2", "--json"),
        ("catalog", "--json"),
    ])
    def test_byte_identical(self, capsys, argv):
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    @pytest.mark.parametrize("argv", [
        ("reproduce", "--json"),
        ("structure", "--json", "eq2", *RECOMBINED),
    ])
    def test_byte_identical_across_hash_seeds(self, argv):
        # one process per string-hash seed: a result that follows the
        # iteration order of a set or of a dict built in hash order differs
        first, second = (run_module(*argv, hash_seed=seed) for seed in (0, 1))
        assert first.returncode == 0, first.stderr
        assert (first.returncode, first.stdout, first.stderr) == (
            second.returncode, second.stdout, second.stderr)


class TestOutput:
    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "genericity", "flat", "--json", "--out", str(path))
        assert code == 0
        assert out == ""
        payload = json.loads(path.read_text())
        assert payload["generic"] is True

    @pytest.mark.parametrize("equation, locus", [
        ("eq2", "generic away from y2 = 0"),
        ("flat", "generic everywhere (constant nonzero)"),
        ("(y2 + 2*y1^2)^(2/3)", "generic away from 2*y1^2 + y2 = 0"),
        ("y2^2*(y1+y)^(1/3)", "generic away from y + y1 = 0"),
        ("y2^2*ln(y)", "generic off the zero locus of the printed expression"),
        ("y2^2*exp(y)", "generic everywhere"),
        ("y1*y2^3", "generic off y1 = 0, y2 = 0"),
        ("y^(-1)*y2^3", "generic away from y = 0 and off y2 = 0"),
    ])
    def test_genericity_locus(self, capsys, equation, locus):
        # a multi-term power base is named whole, and an ln atom vanishes
        # where its argument is 1
        code, out, _ = run(capsys, "genericity", equation, "--json")
        assert code == 0
        assert json.loads(out)["locus"] == locus

    def test_inline_equation(self, capsys):
        code, out, _ = run(capsys, "genericity", "x + y*y2")
        assert code == 0
        assert "vanishes identically" in out

    def test_solve_text_writes_one_stderr_line_per_degree(self, capsys):
        code, out, err = run(capsys, "solve", "flat", "--degree", "1")
        assert code == 0
        assert err == ("degree 0: dimension 3 (5 unknowns, 3 rows)\n"
                       "degree 1: dimension 6 (30 unknowns, 36 rows)\n")
        assert "basis fields verified symbolically: True" in out

    def test_solve_text_names_the_degree_it_stabilized_at(self, capsys):
        code, out, _ = run(capsys, "solve", "eq2", "--degree", "3")
        assert code == 0
        assert "stabilized (heuristic) at degree 3: dimension 6" in out.splitlines()

    def test_solve_verify_flag_is_always_on(self, capsys):
        plain = run(capsys, "solve", "eq2", "--degree", "2")
        flagged = run(capsys, "solve", "eq2", "--degree", "2", "--verify")
        assert plain[0] == flagged[0] == 0
        assert plain[1] == flagged[1]

    def test_solve_with_explicit_rates(self, capsys):
        code, out, _ = run(capsys, "solve", "dz13(5,4)", "--degree", "1",
                           "--rates", "0,1,-1,2,-2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["table"][-1]["dimension"] == 7

    def test_solve_reports_the_offsets_and_rates_it_solved_with(self, capsys):
        # the ansatz sorts and de-duplicates --offsets and --rates
        code, out, _ = run(capsys, "solve", "eq2", "--degree", "0",
                           "--offsets", "1/3,0,1/3", "--rates", "0,0", "--json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["offsets"], payload["rates"]) == (["0", "1/3"], ["0"])
        assert payload["table"][0]["unknowns"] == 10
        code, out, _ = run(capsys, "solve", "eq2", "--degree", "0",
                           "--offsets", "0,1/3,1/3")
        assert code == 0
        assert "offsets: 0, 1/3\n" in out

    def test_stabilization_reads_the_last_plateau(self, capsys):
        # dimensions 3, 6, 6, 6, 6, 7: the plateau at 6 is not the last one
        code, out, _ = run(capsys, "solve", "y2^3", "--degree", "5")
        assert code == 0
        assert "not stabilized within the degree bound; last dimension 7\n" in out
        code, out, _ = run(capsys, "solve", "y2^3", "--degree", "4", "--json")
        payload = json.loads(out)
        assert (payload["stabilized"], payload["stabilized_at"]) == (True, 2)

    @pytest.mark.parametrize("flag, value", [("--offsets", "-1/3,0,1/3"),
                                             ("--rates", "-1,0")])
    def test_spaced_list_starting_negative(self, capsys, flag, value):
        argv = ("solve", "eq2", "--degree", "1", "--json")
        spaced = run(capsys, *argv, flag, value)
        joined = run(capsys, *argv, f"{flag}={value}")
        assert spaced[0] == joined[0] == 0, spaced[2]
        assert spaced[1] == joined[1]

    def test_consecutive_calls_share_no_state(self, capsys):
        argv = ("solve", "eq2", "--degree", "1", "--json")
        run(capsys, *argv, "--timings")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "timings" not in json.loads(out)
        run(capsys, "catalog", "--json")
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_structure_text_golden(self, capsys):
        # the text report, bracket table included, byte for byte
        code, out, err = run(capsys, "structure", "eq2")
        with open(os.path.join(GOLDEN, "structure_eq2.txt"), encoding="utf-8") as fh:
            assert (code, out, err) == (0, fh.read(), "")

    def test_structure_subset(self, capsys):
        code, out, _ = run(capsys, "structure", "eq2", "S1", "S2", "S3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["structure"]["verdict"] == "sl2"

    def test_structure_rejects_non_symmetry(self, capsys):
        code, _, err = run(capsys, "structure", "eq2",
                           '{"chart":"J20","coefficients":{"y":"1"}}')
        assert code == 1
