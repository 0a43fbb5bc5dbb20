import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import stream_texts, streams
from helpers import coverage_union

from lscpm import (
    Interval,
    Link,
    LinkStream,
    ParseError,
    apply_delta,
    parse_links,
    serialize,
    validate,
)
from lscpm.cliques import _clique_keys
from lscpm.linkstream import _read_links


class TestInterval:
    def test_rejects_reversed_endpoints(self):
        with pytest.raises(ValueError):
            Interval(2, 1)

    @pytest.mark.parametrize("t0, t1", [(math.nan, 1), (0, math.nan), (math.nan, math.nan)])
    def test_rejects_nan_endpoints(self, t0, t1):
        with pytest.raises(ValueError):
            Interval(t0, t1)

    def test_zero_length_allowed_but_not_positive(self):
        iv = Interval(3, 3)
        assert iv.t0 == iv.t1 == 3


class TestLink:
    def test_pair_is_normalized(self):
        # Link stores what it is given; the producers put the pair as u < v
        assert LinkStream.from_links([Link(0, 1, 5, 2)]).links == (Link(0, 1, 2, 5),)
        stream = parse_links("1 2 b a\n3 4 a b")
        assert stream.links == (Link(1, 2, 0, 1), Link(3, 4, 0, 1))
        assert stream.labels == {0: "b", 1: "a"}

    def test_sort_order_is_b_e_pair(self):
        links = [Link(1, 9, 0, 1), Link(0, 9, 2, 3), Link(0, 5, 2, 3), Link(0, 5, 0, 1)]
        assert sorted(links) == [
            Link(0, 5, 0, 1),
            Link(0, 5, 2, 3),
            Link(0, 9, 2, 3),
            Link(1, 9, 0, 1),
        ]


class TestFromLinks:
    @pytest.mark.parametrize("repeat", [Link(0, 5, 0, 1), Link(0, 5.0, 0, 1), Link(0, 5, 1, 0)])
    def test_repeated_link_kept_once(self, repeat):
        # links form a set, as in parse_links: 5 and 5.0 are one time, and a
        # pair given as u > v is the same pair
        stream = LinkStream.from_links([Link(0, 5, 0, 1), Link(2, 9, 1, 2), repeat])
        assert stream.links == (Link(0, 5, 0, 1), Link(2, 9, 1, 2))
        assert validate(stream) == []

    def test_repeat_keeps_the_form_given_first(self):
        stream = LinkStream.from_links([Link(0, 5.0, 0, 1), Link(0, 5, 0, 1)])
        assert [repr(ln.e) for ln in stream.links] == ["5.0"]


class TestParse:
    def test_single_link_with_label_mapping(self):
        stream = parse_links("1 13 c d")
        assert stream.links == (Link(1, 13, 0, 1),)
        assert stream.labels == {0: "c", 1: "d"}

    def test_empty_input(self):
        stream = parse_links("")
        assert stream.links == ()
        assert stream.span is None

    def test_comments_blanks_and_tabs(self):
        stream = parse_links("# header\n\n1\t5\ta\tb\n  2  6  a  c\n")
        assert len(stream.links) == 2

    def test_labels_in_first_appearance_order(self):
        stream = parse_links("5 6 a b\n1 2 c d")
        assert stream.labels == {0: "a", 1: "b", 2: "c", 3: "d"}
        assert stream.links == (Link(1, 2, 2, 3), Link(5, 6, 0, 1))

    def test_float_times(self):
        stream = parse_links("0.5 1.25 a b")
        assert stream.links[0].b == 0.5
        assert stream.links[0].e == 1.25

    def test_end_before_begin_reports_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_links("3 1 a b")

    def test_malformed_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_links("1 2 a b\n1 2 c\n")

    def test_bad_time_token(self):
        with pytest.raises(ParseError, match="bad time"):
            parse_links("x 2 a b")

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError, match="self-loop"):
            parse_links("1 5 a a")

    @given(
        st.sampled_from(["durational", "instantaneous"]),
        st.lists(st.sampled_from(["valid", "comment", "blank"]), max_size=6),
        st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "+inf", "Infinity", "1e400"]),
        st.integers(0, 1),
        st.integers(0, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_non_finite_time_reports_its_line(self, fmt, before, token, field, after):
        def valid(i):
            return f"{i} {i + 1} a{i} b{i}" if fmt == "durational" else f"{i} a{i} b{i}"

        filler = {"comment": "# note", "blank": ""}
        lines = [valid(i) if kind == "valid" else filler[kind] for i, kind in enumerate(before)]
        if fmt == "durational":
            times = ["0", "1"]
            times[field] = token
            lines.append(f"{times[0]} {times[1]} x y")
        else:
            lines.append(f"{token} x y")
        bad_line = len(lines)
        lines += [valid(100 + i) for i in range(after)]
        delta = 1 if fmt == "instantaneous" else None
        with pytest.raises(ParseError, match="non-finite") as exc:
            parse_links("\n".join(lines), format=fmt, delta=delta)
        assert exc.value.line == bad_line

    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                     "\u2028", "\u2029"],
                             ids=["VT", "FF", "FS", "GS", "RS", "NEL", "LS", "PS"])
    @pytest.mark.parametrize("fmt, valid, bad", [
        ("durational", "0 5 {}", "1 2 x"),
        ("instantaneous", "0 {}", "1 x"),
    ], ids=["durational", "instantaneous"])
    def test_lines_split_at_newlines_only(self, sep, fmt, valid, bad):
        # a separator inside a comment leaves the comment whole, so the error
        # on line 5 is the one reported; \r\n and \r still end a line
        lines = [valid.format("a b"), f"# exported{sep}page 2", valid.format("a c"),
                 valid.format("b c"), bad]
        text = lines[0] + "\n" + lines[1] + "\r\n" + lines[2] + "\r" + "\n".join(lines[3:])
        delta = 1 if fmt == "instantaneous" else None
        with pytest.raises(ParseError) as exc:
            parse_links(text, format=fmt, delta=delta)
        assert exc.value.line == 5
        assert len(parse_links("\n".join(lines[:4]), format=fmt, delta=delta).links) == 3

    @pytest.mark.parametrize("space", ["\x0b", "\x1c", "\x85", "\u3000"],
                             ids=["VT", "FS", "NEL", "IDEOGRAPHIC"])
    def test_unicode_whitespace_separates_fields_like_a_space(self, space):
        # str.split() splits at every str.isspace() character, before, between
        # and after the fields, and before a comment; none of these ends a line
        good = "_0_5_a_b_\n_# note_\n_1_6_a_c_\n__\n2_7_b_c\n"
        got = parse_links(good.replace("_", space))
        want = parse_links(good.replace("_", " "))
        assert (got.links, got.labels) == (want.links, want.labels)
        for bad in ("_3_1_a_b_", "_9_a_b_", "_0_x_a_b_"):
            with pytest.raises(ParseError) as want_exc:
                parse_links((good + bad).replace("_", " "))
            with pytest.raises(ParseError) as got_exc:
                parse_links((good + bad).replace("_", space))
            assert want_exc.value.line == 6
            assert str(got_exc.value) == str(want_exc.value)

    @pytest.mark.parametrize("t, delta", [("1.7e308", 1e308), (str(10**400), 1.5)])
    def test_instant_whose_end_overflows_reports_its_line(self, t, delta):
        with pytest.raises(ParseError, match="non-finite") as exc:
            parse_links(f"0 a b\n# note\n{t} a c\n", format="instantaneous", delta=delta)
        assert exc.value.line == 3

    def test_overlapping_pair_rejected_with_lines(self):
        with pytest.raises(ParseError, match="lines 1 and 2"):
            parse_links("1 5 a b\n3 8 a b")

    @pytest.mark.parametrize("text, message, line", [
        ("1 2 c d\n0 5.0 a b\n3 8 a b\n0 5 a b\n3 8.0 a b\n", "(lines 2 and 3)", 3),
        ("3 8.0 a b\n0 5 a b\n1 2 c d\n3 8 a b\n0 5.0 a b\n", "(lines 2 and 1)", 1),
    ], ids=["repeats-follow", "overlap-written-first"])
    def test_overlap_names_the_first_line_of_each_link(self, text, message, line):
        # 5.0 and 5 are one link, repeated on two lines, and so are 8 and 8.0:
        # each is named by the first line that writes it, in either form
        with pytest.raises(ParseError) as exc:
            parse_links(text)
        assert str(exc.value) == f"line {line}: links on pair (a, b) overlap {message}"
        assert exc.value.line == line

    @pytest.mark.parametrize("text, delta", [("0 nan a b", None), ("0 x a b", None),
                                             ("0 a b", None), ("nan a b", 2)])
    def test_error_traceback_leaves_out_the_int_attempt(self, text, delta):
        # the reader tries int() first; that error is not part of the report
        fmt = "durational" if delta is None else "instantaneous"
        with pytest.raises(ParseError) as exc:
            parse_links(text, format=fmt, delta=delta)
        assert exc.value.__context__ is None or exc.value.__suppress_context__

    def test_repeat_written_two_ways_keeps_the_first_form(self):
        stream = parse_links("0 5.0 a b\n1 2 c d\n0 5 a b\n")
        assert [tuple(map(repr, ln)) for ln in stream.links] == \
            [("0", "5.0", "0", "1"), ("1", "2", "2", "3")]

    def test_touching_pair_rejected(self):
        # closed intervals sharing one endpoint still intersect
        with pytest.raises(ParseError, match="overlap"):
            parse_links("1 5 a b\n5 8 a b")

    def test_duplicate_line_collapses(self):
        stream = parse_links("1 5 a b\n1 5 a b")
        assert len(stream.links) == 1

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_links("", format="nonsense")

    def test_durational_refuses_delta(self):
        # a delta is never dropped without a word: it belongs to instantaneous input
        with pytest.raises(ValueError, match="durational input takes no delta"):
            parse_links("0 1 a b\n", delta=5)

    def test_instantaneous_requires_delta(self):
        with pytest.raises(ParseError, match="delta"):
            parse_links("1 a b", format="instantaneous")

    def test_instantaneous_with_delta_merges(self):
        stream = parse_links("0 a b\n1 a b", format="instantaneous", delta=2)
        assert stream.links == (Link(0, 3, 0, 1),)

    def test_instantaneous_self_loop_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_links("1 a a", format="instantaneous", delta=2)

    @pytest.mark.parametrize("delta", [2, None])
    def test_instantaneous_malformed_line_number(self, delta):
        # a bad line is reported before a missing delta, which waits for the end
        with pytest.raises(ParseError, match="expected 't u v', got 4 fields") as exc:
            parse_links("0 a b\n# note\n1 2 a c\n", format="instantaneous", delta=delta)
        assert exc.value.line == 3

    def test_instantaneous_invalid_delta_refused_before_any_line(self):
        # apply_delta checks the delta before it draws the first instant from the reader
        with pytest.raises(ValueError, match="delta must be positive and finite") as exc:
            parse_links("0 a b\n1 2 a c\n", format="instantaneous", delta=0)
        assert not isinstance(exc.value, ParseError)


class TestApplyDelta:
    def test_single_instant(self):
        stream = apply_delta([(0, 0, 1)], 2)
        assert stream.links == (Link(0, 2, 0, 1),)

    def test_overlapping_instants_merge(self):
        # half-tick coverage gives the same union
        assert coverage_union([0, 1], 2) == [(0, 3)]
        stream = apply_delta([(0, 0, 1), (1, 0, 1)], 2)
        assert stream.links == (Link(0, 3, 0, 1),)

    def test_disjoint_instants_stay_apart(self):
        assert coverage_union([0, 5], 2) == [(0, 2), (5, 7)]
        stream = apply_delta([(0, 0, 1), (5, 0, 1)], 2)
        assert stream.links == (Link(0, 2, 0, 1), Link(5, 7, 0, 1))

    def test_touching_instants_merge(self):
        assert coverage_union([0, 2], 2) == [(0, 4)]
        stream = apply_delta([(0, 0, 1), (2, 0, 1)], 2)
        assert stream.links == (Link(0, 4, 0, 1),)

    @pytest.mark.parametrize("delta", [0, -1, math.nan, math.inf])
    def test_nonpositive_delta_rejected(self, delta):
        with pytest.raises(ValueError):
            apply_delta([(0, 0, 1)], delta)

    def test_self_loop_instant_rejected(self):
        with pytest.raises(ValueError):
            apply_delta([(0, 2, 2)], 1)

    @pytest.mark.parametrize("t, delta", [(1.7e308, 1e308), (10**400, 1.5)])
    def test_end_past_the_largest_float_rejected(self, t, delta):
        with pytest.raises(ValueError, match="non-finite"):
            apply_delta([(0, 0, 1), (t, 1, 2)], delta)

    def test_large_int_end_is_finite(self):
        assert apply_delta([(10**400, 0, 1)], 2).links == (Link(10**400, 10**400 + 2, 0, 1),)

    def test_equal_times_keep_the_form_given_first(self):
        stream = apply_delta([(5.0, 1, 0), (5, 0, 1), (9, 2, 1), (9.0, 1, 2)], 2)
        assert [(repr(ln.b), repr(ln.e)) for ln in stream.links] == [("5.0", "7.0"), ("9", "11")]

    @given(
        st.lists(st.tuples(st.integers(0, 30).flatmap(lambda t: st.sampled_from([t, float(t)])),
                           st.integers(0, 5), st.integers(0, 5)).filter(lambda r: r[1] != r[2]),
                 min_size=1, max_size=25),
        st.lists(st.integers(0, 24), max_size=6),
        st.sampled_from([1, 2, 2.5, 4]),
    )
    @settings(max_examples=100, deadline=None)
    def test_output_is_its_own_from_links(self, records, repeats, delta):
        # apply_delta builds the stream itself; from_links, which would sort,
        # swap and drop repeats, must find nothing to change, time forms included
        records += [records[i % len(records)] for i in repeats]
        stream = apply_delta(records, delta)
        rebuilt = LinkStream.from_links(stream.links)
        assert stream.links == rebuilt.links
        assert [tuple(map(repr, ln)) for ln in stream.links] == \
            [tuple(map(repr, ln)) for ln in rebuilt.links]
        assert stream.labels == rebuilt.labels
        assert list(stream.labels) == list(rebuilt.labels)

    @given(streams())
    @settings(max_examples=60, deadline=None)
    def test_output_always_validates(self, stream):
        # rebuild instants from the stream's own links to stress merging
        instants = [(ln.b, ln.u, ln.v) for ln in stream.links]
        instants += [(ln.b + 1, ln.u, ln.v) for ln in stream.links]
        rebuilt = apply_delta(instants, 3) if instants else LinkStream.from_links([])
        assert validate(rebuilt) == []

    @given(streams())
    @settings(max_examples=40, deadline=None)
    def test_merge_agrees_with_coverage_union(self, stream):
        instants = sorted({(ln.b, ln.u, ln.v) for ln in stream.links})
        if not instants:
            return
        rebuilt = apply_delta(instants, 4)
        per_pair: dict[tuple[int, int], list[int]] = {}
        for t, u, v in instants:
            per_pair.setdefault((min(u, v), max(u, v)), []).append(t)
        for pair, ts in per_pair.items():
            got = [(ln.b, ln.e) for ln in rebuilt.links if ln.pair == pair]
            assert sorted(got) == coverage_union(ts, 4)


class TestValidate:
    def test_self_loop_found(self):
        stream = LinkStream.from_links([Link(1, 5, 0, 0)])
        kinds = [v.kind for v in validate(stream)]
        assert kinds == ["self-loop"]

    def test_pair_overlap_found(self):
        stream = LinkStream.from_links([Link(1, 5, 0, 1), Link(3, 8, 0, 1)])
        kinds = [v.kind for v in validate(stream)]
        assert kinds == ["pair-overlap"]

    def test_end_before_begin_found(self):
        stream = LinkStream((Link(5, 1, 0, 1),), {0: "a", 1: "b"})
        kinds = [v.kind for v in validate(stream)]
        assert "end-before-begin" in kinds

    def test_unsorted_found(self):
        stream = LinkStream((Link(5, 6, 0, 1), Link(1, 2, 2, 3)), {0: "a", 1: "b", 2: "c", 3: "d"})
        kinds = [v.kind for v in validate(stream)]
        assert "unsorted" in kinds

    def test_pair_order_found(self):
        stream = LinkStream((Link(1, 5, 1, 0),), {0: "a", 1: "b"})
        kinds = [v.kind for v in validate(stream)]
        assert kinds == ["pair-order"]

    def test_missing_label_found(self):
        stream = LinkStream((Link(1, 2, 0, 1),), {0: "a"})
        kinds = [v.kind for v in validate(stream)]
        assert "label-missing" in kinds

    def test_duplicate_label_found(self):
        stream = LinkStream((Link(1, 2, 0, 1),), {0: "a", 1: "a"})
        kinds = [v.kind for v in validate(stream)]
        assert kinds == ["label-duplicate"]

    @pytest.mark.parametrize("b, e", [(math.nan, 5), (1, math.inf), (-math.inf, 2)])
    def test_non_finite_found(self, b, e):
        stream = LinkStream((Link(b, e, 0, 1),), {0: "a", 1: "b"})
        kinds = [v.kind for v in validate(stream)]
        assert "non-finite" in kinds

    def test_valid_stream_is_clean(self, known_stream):
        assert validate(known_stream) == []


def read_alone(text):
    """(labels, links) of _read_links on text."""
    ids = {}
    links = [Link(*link) for link in _read_links(text, ids)]
    return {i: label for label, i in ids.items()}, links


def streamed_read(text):
    """(labels, links) of _read_links on text, each link drawn by the clique search."""
    ids, links = {}, []

    def read():
        for link in _read_links(text, ids):
            links.append(Link(*link))
            yield link

    for _ in _clique_keys(read(), 3):
        pass
    return {i: label for label, i in ids.items()}, links


class TestSortedLinks:
    """The streamed read of sorted links: _read_links, each link drawn by the clique search."""

    @given(stream_texts())
    @settings(max_examples=400, deadline=None)
    def test_vouches_only_for_what_parse_links_reads_the_same(self, text):
        # text the reader and the search read to the end, parse_links reads
        # without error into the same links
        try:
            labels, links = streamed_read(text)
        except ValueError:
            return
        stream = parse_links(text)
        assert labels == stream.labels
        assert tuple(sorted(links)) == stream.links

    @pytest.mark.parametrize("text", [
        "0 5 a b\r\n1 6 b c\r2 4 a c\n",
        "0 5.0 a b\n0.5 6 b c\n",
        "# b e u v\n0 5 a b\n\n# note\n1 6 b c\n",
    ], ids=["cr", "float-form", "comment"])
    def test_reads_what_parse_links_reads(self, text):
        labels, links = read_alone(text)
        stream = parse_links(text)
        assert labels == stream.labels
        assert [tuple(map(repr, ln)) for ln in links] == \
            [tuple(map(repr, ln)) for ln in stream.links]

    @pytest.mark.parametrize("text", [
        "0 5 a b\n5 0 a b\n",
        "0 5 a b\n0 5 a a\n",
        "0 5 a b\n0 a b\n",
    ], ids=["end-before-begin", "self-loop", "three-fields"])
    def test_refuses_what_parse_links_must_judge(self, text):
        # the error parse_links words, line number included
        with pytest.raises(ParseError) as exc:
            parse_links(text)
        with pytest.raises(ParseError) as read:
            read_alone(text)
        assert str(read.value) == str(exc.value)
        assert read.value.line == exc.value.line == 2

    @pytest.mark.parametrize("text", [
        "0 5 a b\n0 5 a b\n",
        "0 5 a b\n1 6 a b\n",
        "0 5 a b\n2 3 c d\n5 6 a b\n",
        "1 5 a b\n0 5 a c\n",
    ], ids=["repeat", "overlap", "touch", "unsorted"])
    def test_search_refuses_what_the_reader_reads(self, text):
        # the reader checks each line alone; begin order and pair overlap are the search's
        read_alone(text)
        with pytest.raises(ValueError):
            streamed_read(text)

    def test_pair_may_begin_again_after_its_end(self):
        # at 6 the search drops the link a-b ending at 5 before it checks the new one
        text = "0 5 a b\n2 3 c d\n6 9 a b\n\n"
        assert streamed_read(text) == ({0: "a", 1: "b", 2: "c", 3: "d"},
                                       [(0, 5, 0, 1), (2, 3, 2, 3), (6, 9, 0, 1)])

    @given(streams())
    @settings(max_examples=100, deadline=None)
    def test_serialized_stream_is_read_to_the_end(self, stream):
        text = serialize(stream)
        labels, links = streamed_read(text)
        parsed = parse_links(text)
        assert labels == parsed.labels
        assert tuple(sorted(links)) == parsed.links


class TestRoundTrip:
    def test_known_stream_round_trips(self, known_text, known_stream):
        assert parse_links(serialize(known_stream)) == known_stream
        assert sorted(serialize(known_stream).splitlines()) == sorted(known_text.splitlines())

    @given(streams())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_equality(self, stream):
        back = parse_links(serialize(stream))
        assert back == stream
        # dense ids and distinct labels on both sides
        assert len(set(back.labels.values())) == len(back.labels)

    @given(streams(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_line_order_and_repeats_do_not_matter(self, stream, data):
        lines = serialize(stream).splitlines()
        if lines:
            lines += data.draw(st.lists(st.sampled_from(lines), max_size=5))
        lines = data.draw(st.permutations(lines))
        assert parse_links("\n".join(lines)) == stream
        if not lines:
            return
        # an added line [b, e + d] on the pair of [b, e] sorts right after it, so
        # that overlap is the first one found even if it also meets a later link
        original = data.draw(st.sampled_from(lines))
        b, e, a, c = original.split()
        if data.draw(st.booleans()):
            a, c = c, a
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, f"{b} {int(e) + data.draw(st.integers(1, 3))} {a} {c}")
        with pytest.raises(ParseError) as exc:
            parse_links("\n".join(lines))
        assert f"(lines {lines.index(original) + 1} and {at + 1})" in str(exc.value)

    @given(streams())
    @settings(max_examples=40, deadline=None)
    def test_serialized_content_is_stable(self, stream):
        once = parse_links(serialize(stream))
        twice = parse_links(serialize(once))
        assert twice == once
        assert sorted(serialize(twice).splitlines()) == sorted(serialize(once).splitlines())
