"""Tests for the one JSON reader, the one writer and the field rules that
check every field read."""

import json
import math

import pytest

from driftmc.errors import (ConfigError, integer, number, numbers,
                            read_object, record, string, write_json)


class TestInteger:
    @pytest.mark.parametrize("value, minimum", [
        (None, 0),
        ("400", 0),
        (True, 0),
        (7.5, 0),
        (math.nan, 0),
        (math.inf, 0),
        (10**400, 0),
        (0, 1),
        (-5, 1),
        (-1, 0),
    ], ids=["none", "string", "bool", "fraction", "nan", "inf", "huge-int",
            "zero-below-1", "negative-below-1", "negative-below-0"])
    def test_refused_naming_the_field(self, value, minimum):
        # never a silent truncation or a bool counted as 1
        with pytest.raises(ConfigError, match=r"^n must be an integer"):
            integer(value, "n", minimum)

    def test_minimum_is_named(self):
        with pytest.raises(ConfigError,
                           match=r"^n must be an integer of at least 1, "
                                 r"got 0$"):
            integer(0, "n", 1)

    @pytest.mark.parametrize("value", [400, 400.0], ids=["int", "whole-float"])
    def test_whole_number_reads_as_int(self, value):
        # JSON writers may write a count as 400.0; it reads back as 400
        read = integer(value, "n", 1)
        assert read == 400 and type(read) is int


class TestNumber:
    @pytest.mark.parametrize("value, bounds", [
        (math.nan, {}),
        (math.inf, {}),
        (-math.inf, {}),
        ("0.1", {}),
        ("x", {}),
        (False, {}),
        (None, {}),
        (10**400, {}),
        (0, {"positive": True}),
        (-1.0, {"positive": True}),
    ], ids=["nan", "inf", "minus-inf", "numeric-string", "string", "bool",
            "none", "huge-int", "zero-not-positive", "negative-not-positive"])
    def test_refused_naming_the_field(self, value, bounds):
        with pytest.raises(ConfigError, match=r"^x must be a"):
            number(value, "x", **bounds)

    def test_message_names_the_kind(self):
        with pytest.raises(ConfigError,
                           match=r"^x must be a positive finite number, "
                                 r"got -7\.0$"):
            number(-7.0, "x", positive=True)

    # number bounds nothing but the float range and, if asked, the sign
    @pytest.mark.parametrize("value", [0, 0.25, 1.0, -3, 7.0, -1e300])
    def test_accepted_unchanged(self, value):
        read = number(value, "x")
        assert read == value and type(read) is type(value)


class TestString:
    @pytest.mark.parametrize("value, choices", [
        (5, ("P", "P_h")),
        (None, ("P", "P_h")),
        ("Q", ("P", "P_h")),
    ], ids=["int", "none", "not-a-choice"])
    def test_refused_naming_the_field(self, value, choices):
        with pytest.raises(ConfigError, match=r"^measure must be"):
            string(value, "measure", choices)

    def test_choices_are_listed(self):
        with pytest.raises(ConfigError,
                           match=r"^measure must be 'P' or 'P_h', got 'Q'$"):
            string("Q", "measure", ("P", "P_h"))

    def test_choice_accepted(self):
        assert string("P_h", "measure", ("P", "P_h")) == "P_h"


class TestRecord:
    FIELDS = ("label", "n")

    @pytest.mark.parametrize("field", ["vr", "extra"])
    def test_unknown_field_refused(self, field):
        with pytest.raises(ConfigError,
                           match=rf"^thing has unknown field '{field}'$"):
            record({"label": "a", "n": 1, field: None}, "thing", self.FIELDS)

    def test_missing_field_refused(self):
        with pytest.raises(ConfigError, match=r"^thing has no 'label' field$"):
            record({"n": 1}, "thing", self.FIELDS)

    def test_exact_fields_accepted(self):
        value = {"n": 1, "label": "a"}
        assert record(value, "thing", self.FIELDS) is value


class TestNumbers:
    @pytest.mark.parametrize("values, length, message", [
        (0.5, None, "xs must be a list of one or more numbers, got 0.5"),
        ([], None, "xs must be a list of one or more numbers, got 0 entries"),
        ([1.0, 2.0], 3, "xs must be a list of 3 numbers, got 2 entries"),
        ([1.0, 2.0, "x"], None, r"xs\[2\] must be a finite number"),
        ([1.0, math.nan], 2, r"xs\[1\] must be a finite number"),
    ], ids=["not-a-list", "empty", "wrong-length", "bad-entry", "nan-entry"])
    def test_refused_naming_the_field(self, values, length, message):
        # a bad entry is named by its index, not only by the list
        with pytest.raises(ConfigError, match=rf"^{message}"):
            numbers(values, "xs", length)

    def test_entry_check_can_be_nested(self):
        # a matrix is a list of rows, each checked as a list of numbers
        rows = lambda row, name: numbers(row, name, 2)  # noqa: E731
        assert numbers([[1, 0], [0, 1]], "m", check=rows) == [[1, 0], [0, 1]]
        with pytest.raises(ConfigError, match=r"^m\[1\]\[0\] must be"):
            numbers([[1, 0], [True, 1]], "m", check=rows)


class TestReadObject:
    @pytest.mark.parametrize("content, message", [
        (None, ": "),
        ("{ not json", " is not valid JSON: "),
        (b"\xff\xfe", " is not valid JSON: "),
        ("[1, 2]", " is not a JSON object"),
        ("[" * 100_000, " is not valid JSON: "),
    ], ids=["missing", "not-json", "not-utf8", "not-object", "too-deep"])
    def test_refusal_names_what_and_path(self, tmp_path, content, message):
        path = tmp_path / "input.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        with pytest.raises(ConfigError) as info:
            read_object(path, "checkpoint")
        assert str(info.value).startswith(f"checkpoint {path}{message}")

    def test_reads_the_object(self, tmp_path):
        path = tmp_path / "input.json"
        path.write_text('{"b": [1, 2.5], "a": "x"}')
        assert read_object(path, "config") == {"a": "x", "b": [1, 2.5]}


class TestWriteJson:
    def test_sorted_indented_and_newline_terminated(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, {"b": 1, "a": {"d": 2, "c": 3}})
        text = path.read_text()
        assert text == ('{\n  "a": {\n    "c": 3,\n    "d": 2\n  },\n'
                        '  "b": 1\n}\n')

    def test_stdout_and_infinity(self, capsys):
        # an all-zero sample's se_pct is infinite and must read back as such
        write_json(None, {"se_pct": math.inf})
        out = capsys.readouterr().out
        assert out == '{\n  "se_pct": Infinity\n}\n'
        assert json.loads(out)["se_pct"] == math.inf
