import gc
import re
from itertools import chain

import numpy as np
import pytest

from drekge import data, domains
from drekge.errors import DataError, ParseError

from generators import domain_members, random_graph, save_graph
from refparse import ref_build_ids, ref_parse_file


def write_triples(path, triples):
    with open(path, "w", encoding="utf-8") as fh:
        for row in triples:
            fh.write("\t".join(row) + "\n")


class TestParsing:
    def test_round_trip_through_files(self, tmp_path):
        train = [("a", "r0", "b"), ("b", "r0", "c"), ("a", "r1", "c")]
        valid = [("a", "r0", "c")]
        test = [("b", "r1", "a")]
        for name, rows in (("train", train), ("valid", valid), ("test", test)):
            write_triples(tmp_path / f"{name}.txt", rows)
        g = data.load_graph(str(tmp_path / "train.txt"),
                            str(tmp_path / "valid.txt"),
                            str(tmp_path / "test.txt"))
        assert g.n_entities == 3
        assert g.n_relations == 2
        assert len(g.train) == 3 and len(g.valid) == 1 and len(g.test) == 1

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("a\tr\tb\n\n\nb\tr\tc\n")
        for name in ("v.txt", "s.txt"):
            (tmp_path / name).write_text("a\tr\tc\n")
        g = data.load_graph(str(p), str(tmp_path / "v.txt"),
                            str(tmp_path / "s.txt"))
        assert len(g.train) == 2

    def test_malformed_line_reports_position(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("a\tr\tb\na\tb\n")
        (tmp_path / "v.txt").write_text("a\tr\tb\n")
        with pytest.raises(ParseError) as err:
            data.load_graph(str(p), str(tmp_path / "v.txt"),
                            str(tmp_path / "v.txt"))
        assert err.value.line_no == 2

    def test_too_many_fields_rejected(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("a\tr\tb\textra\n")
        with pytest.raises(ParseError):
            data.load_graph(str(p), str(p), str(p))


class TestParseErrors:
    @pytest.mark.parametrize("body, line_no", [
        (b"a\tr\t\xff\n", 1),
        (b"a\tr\tb\r\nb\tr\rc\tr\td\xe9\n", 3),   # CRLF, lone CR
        (b"a\tr\tb\n\n\xc3\n", 3),                 # truncated sequence
        (b"a\tr\tb\n\tr\tc\n\xff\n", 3),           # before a bad line
    ])
    def test_invalid_utf8_names_its_line(self, tmp_path, body, line_no):
        p = tmp_path / "t.txt"
        p.write_bytes(body)
        with pytest.raises(ParseError) as err:
            data.load_graph(str(p), str(p), str(p))
        assert err.value.line_no == line_no
        assert err.value.path == str(p)
        assert "UTF-8" in str(err.value)

    @pytest.mark.parametrize("line", ["\tr\tc", "a\t\tc", "a\tr\t",
                                      "\t\t"])
    def test_empty_field_rejected(self, tmp_path, line):
        p = tmp_path / "t.txt"
        p.write_text(f"a\tr\tb\n\n{line}\nb\tr\tc\n")
        with pytest.raises(ParseError) as err:
            data.load_graph(str(p), str(p), str(p))
        assert err.value.line_no == 3
        assert "empty" in str(err.value)

    @pytest.mark.parametrize("body, line_no, message", [
        (b"\tr\tc\n", 1, "empty head field"),
        (b"a\t\tc\n", 1, "empty relation field"),
        (b"a\tr\t\n", 1, "empty tail field"),
        (b"a\tr\t", 1, "empty tail field"),
        (b"\t\t\n", 1, "empty head field"),
        # the field count is named before the empty field
        (b"a\t\tb\tc\n", 1, "expected 3 tab-separated fields, got 4"),
        (b"a\tr\tb\r\n\r\nb\tr\tc\r\na\t\tc\r\n", 4,
         "empty relation field"),
        (b"a\tr\tb\r\rb\tr\tc\ra\tr\t\r", 4, "empty tail field"),
        (b"a\tr\tb\r\n\rb\tr\tc\n\r\n\tr\tc\n", 5, "empty head field"),
    ])
    def test_exact_message(self, tmp_path, body, line_no, message):
        p = tmp_path / "t.txt"
        p.write_bytes(body)
        with pytest.raises(ParseError) as err:
            data.load_graph(str(p), str(p), str(p))
        assert err.value.line_no == line_no
        assert str(err.value) == f"{p}:{line_no}: {message}"


# labels that file iteration keeps whole and str.splitlines would split
_ODD_LABELS = ["a\x0cb", "x\x85", "\u2028y", "z\x1cz", "\x1d", "\x1e\x1e",
               "\x0b", "\u2029q"]
_PLAIN_LABELS = ["e1", "e2", "e3", "r0", "r1", "caf\u00e9", "\u65e5\u672c",
                 "stra\u00dfe", "e 4", "\U0001f600", "e1 "]


def fuzz_file(rng, labels, malformed):
    """One triple file's text: random line ends (LF, CRLF, lone CR),
    blank lines, maybe no final newline, and, when ``malformed``, some
    lines of 2 or 4 fields."""
    lines = []
    for _ in range(int(rng.integers(0, 25))):
        kind = rng.random()
        if kind < 0.15:
            lines.append("")
        else:
            n_fields = 3
            if malformed and kind > 0.85:
                n_fields = int(rng.choice([2, 4]))
            lines.append("\t".join(labels[int(i)] for i in
                                   rng.integers(0, len(labels), n_fields)))
    ends = rng.choice(["\n", "\r\n", "\r"], size=len(lines),
                      p=[0.6, 0.25, 0.15])
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and rng.random() < 0.3:
        text = text[:-1]   # drop the final newline (or the CR of a CRLF)
    return text


class TestParserEquivalence:
    """The one-pass parser and id assignment against the per-line
    reference in ``refparse``, on seeded random files."""

    @pytest.mark.parametrize("seed", range(200))
    def test_matches_the_per_line_parser(self, tmp_path, seed):
        rng = np.random.default_rng(5000 + seed)
        labels = _PLAIN_LABELS + _ODD_LABELS
        labels = [labels[i] for i in rng.permutation(len(labels))[
            :int(rng.integers(2, len(labels) + 1))]]
        malformed = rng.random() < 0.3
        paths = []
        for name in ("train", "valid", "test"):
            path = tmp_path / f"{name}.txt"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(fuzz_file(rng, labels, malformed))
            paths.append(str(path))

        try:
            ref = [ref_parse_file(p) for p in paths]
        except ParseError as ref_err:
            with pytest.raises(ParseError) as err:
                data.load_graph(*paths)
            assert (err.value.path, err.value.line_no) == \
                (ref_err.path, ref_err.line_no)
            return
        assert [[text[a:a + n].decode() for a, n in zip(at, size)]
                for text, at, size in map(data._read_fields, paths)] == \
            [list(chain.from_iterable(triples)) for triples in ref]
        entities, relations, splits = ref_build_ids(*ref)
        g = data.load_graph(*paths)
        assert g.entities.labels == entities
        assert g.relations.labels == relations
        assert [g.train.tolist(), g.valid.tolist(), g.test.tolist()] == \
            [[list(row) for row in split] for split in splits]
        assert g.ids.tolist() == [list(row) for split in splits
                                  for row in split]
        assert not any(split.flags.writeable
                       for split in (g.ids, g.train, g.valid, g.test))
        assert all(g.entities.id(label) == i
                   for i, label in enumerate(entities))

    @pytest.mark.parametrize("seed", range(100))
    def test_empty_fields_match_the_per_line_parser(self, tmp_path, seed):
        rng = np.random.default_rng(7000 + seed)
        labels = ["", *_PLAIN_LABELS, *_ODD_LABELS]
        malformed = rng.random() < 0.3
        paths = []
        for name in ("train", "valid", "test"):
            path = tmp_path / f"{name}.txt"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(fuzz_file(rng, labels, malformed))
            paths.append(str(path))

        try:
            ref = [ref_parse_file(p) for p in paths]
        except ParseError as ref_err:
            with pytest.raises(ParseError) as err:
                data.load_graph(*paths)
            assert (err.value.path, err.value.line_no, str(err.value)) == \
                (ref_err.path, ref_err.line_no, str(ref_err))
            return
        entities, relations, splits = ref_build_ids(*ref)
        g = data.load_graph(*paths)
        assert g.entities.labels == entities
        assert g.relations.labels == relations
        assert g.ids.tolist() == [list(row) for split in splits
                                  for row in split]


def blob_of(labels):
    return ("\n" + "".join(label + "\n" for label in labels)).encode()


def packed_labels(rng):
    """Labels that meet every case of the loader's word packing: lengths
    on both sides of 8 and 16 bytes and beyond, NUL bytes, multi-byte
    UTF-8, and chains of labels that are byte prefixes of each other."""
    alphabet = ["a", "b", "\x00", "é", "日", "\U0001f600", " "]

    def word(size, letters=len(alphabet)):
        # index the list: numpy string arrays drop trailing NULs
        return "".join(alphabet[i] for i in rng.integers(0, letters, size))

    labels = [word(int(rng.integers(1, 30)))
              for _ in range(int(rng.integers(3, 12)))]
    stem = word(40, letters=3)
    labels += [stem[:k] for k in (1, 7, 8, 9, 15, 16, 17, 24, 25, 40)]
    labels += [stem[:16] + "\x00", stem[:8] + "\x00" * 8, "\x00"]
    return list(dict.fromkeys(labels))


class TestByteLoader:
    """Ids, labels, blobs and splits of the byte-level loader against the
    per-line reference in ``refparse``, on seeded files whose labels are
    packed into one or more words."""

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_the_reference(self, tmp_path, seed):
        rng = np.random.default_rng(9000 + seed)
        labels = packed_labels(rng)
        paths = []
        for name in ("train", "valid", "test"):
            path = tmp_path / f"{name}.txt"
            # valid and test are sometimes empty, or only blank lines
            text = "" if name != "train" and rng.random() < 0.3 else \
                fuzz_file(rng, labels, malformed=False)
            path.write_bytes(text.encode())
            paths.append(str(path))
        ref = [ref_parse_file(p) for p in paths]
        entities, relations, splits = ref_build_ids(*ref)
        for g in (data.load_graph(*paths), data.build_graph(*ref)):
            assert g.entities.labels == entities
            assert g.relations.labels == relations
            assert g.entities._blob == blob_of(entities)
            assert g.relations._blob == blob_of(relations)
            assert [g.train.tolist(), g.valid.tolist(), g.test.tolist()] == \
                [[list(row) for row in split] for split in splits]

    def test_one_label_in_both_vocabularies(self):
        g = data.build_graph([("x", "x", "y"), ("y", "r", "x")], [],
                             [("r", "y", "r")])
        assert g.entities.labels == ["x", "y", "r"]
        assert g.relations.labels == ["x", "r", "y"]
        assert g.ids.tolist() == [[0, 0, 1], [1, 1, 0], [2, 2, 2]]

    def test_empty_valid_and_test_files(self, tmp_path):
        write_triples(tmp_path / "train.txt", [("a", "r", "b")])
        (tmp_path / "valid.txt").write_text("")
        (tmp_path / "test.txt").write_text("\n\r\n\n")
        g = data.load_graph(*(str(tmp_path / f"{name}.txt")
                              for name in ("train", "valid", "test")))
        assert g.ids.tolist() == [[0, 0, 1]]
        assert g.valid.shape == g.test.shape == (0, 3)

    def test_a_last_field_at_the_end_of_the_files(self, tmp_path):
        # no final line end: the last word of each file's last field
        # ends at the end of the file's bytes
        paths = []
        for name, text in (("train", "abcdefghijk\tr\tabcdefghijk"),
                           ("valid", "abcdefghijk\tr\tabcdefghij"),
                           ("test", "abcdefghij\tr\tz")):
            (tmp_path / name).write_text(text)
            paths.append(str(tmp_path / name))
        g = data.load_graph(*paths)
        assert g.entities.labels == ["abcdefghijk", "abcdefghij", "z"]
        assert g.ids.tolist() == [[0, 0, 0], [0, 0, 1], [1, 0, 2]]

    def test_build_graph_refuses_tabs_and_carriage_returns(self):
        # and an empty label: each triple's line is refused as in a file
        for triple, line, message in [
                (("", "r\r", "a\tb"), 1,
                 "expected 3 tab-separated fields, got 2"),
                # "a<TAB>b<TAB>r" is a line of three fields
                (("a\tb", "r\r", "c\r"), 2,
                 "expected 3 tab-separated fields, got 2"),
                (("c\r", "a\tb", "\t"), 1,
                 "expected 3 tab-separated fields, got 1"),
                (("", "r", "a"), 1, "empty head field")]:
            with pytest.raises(ParseError) as err:
                data.build_graph([triple], [], [])
            assert str(err.value) == f"<train>:{line}: {message}"


# triples whose line a triple file may not hold, each with the message
# and how far past its own line the refused line is (a line end inside
# a tail first ends a line of three fields)
_MALFORMED = [
    (("a", "r", "b", "x"), 0, "expected 3 tab-separated fields, got 4"),
    (("a", "r"), 0, "expected 3 tab-separated fields, got 2"),
    (("a", "", "b"), 0, "empty relation field"),
    (("a\tb", "r", "c"), 0, "expected 3 tab-separated fields, got 4"),
    (("a", "r\rx", "b"), 0, "expected 3 tab-separated fields, got 2"),
    (("a", "r", "b\nc"), 1, "expected 3 tab-separated fields, got 1"),
]


class TestBuildGraphParity:
    """``build_graph`` of label triples and ``load_graph`` of files
    holding the same triples make the same graph, or raise the same
    ``ParseError`` but for its path."""

    @pytest.mark.parametrize("seed", range(20))
    def test_the_same_graph_as_the_files(self, tmp_path, seed):
        rng = np.random.default_rng(1300 + seed)
        labels = packed_labels(rng)

        def triples(n):
            return [tuple(labels[i] for i in rng.integers(0, len(labels), 3))
                    for _ in range(n)]

        splits = [triples(int(rng.integers(1, 40))),
                  triples(int(rng.integers(0, 10))),
                  triples(int(rng.integers(0, 10)))]
        # duplicates within and across splits
        for split in splits:
            split += [splits[0][i]
                      for i in rng.integers(0, len(splits[0]), 5)]
        built = data.build_graph(*splits)
        save_graph(built, str(tmp_path))
        loaded = data.load_graph(*(str(tmp_path / f"{name}.txt")
                                   for name in ("train", "valid", "test")))
        entities, relations, ids = ref_build_ids(*splits)
        assert built.entities.labels == entities
        assert built.relations.labels == relations
        assert built.ids.tolist() == loaded.ids.tolist() == \
            [list(row) for split in ids for row in split]
        assert built.entities._blob == loaded.entities._blob
        assert built.relations._blob == loaded.relations._blob

    @pytest.mark.parametrize("split", range(3))
    @pytest.mark.parametrize("bad, extra, message", _MALFORMED)
    def test_the_same_refusal_as_the_files(self, tmp_path, split, bad,
                                           extra, message):
        splits = [[("h", "r", "t")] for _ in range(3)]
        splits[split] = [("h", "r", "t"), ("h", "s", "t"), bad,
                         ("t", "r", "h")]
        paths = [str(tmp_path / f"{name}.txt")
                 for name in ("train", "valid", "test")]
        for path, triples in zip(paths, splits):
            write_triples(path, triples)
        with pytest.raises(ParseError) as built:
            data.build_graph(*splits)
        with pytest.raises(ParseError) as loaded:
            data.load_graph(*paths)
        line = 3 + extra
        name = ("<train>", "<valid>", "<test>")[split]
        assert str(built.value) == f"{name}:{line}: {message}"
        assert str(loaded.value) == f"{paths[split]}:{line}: {message}"
        assert built.value.line_no == loaded.value.line_no == line

    def test_a_tail_ending_in_line_ends_reads_as_in_a_file(self, tmp_path):
        # "b<CR><LF>" and "b<LF><LF>" end a line whose tail is "b"
        triples = [("a", "r", "b"), ("a", "r", "b\r"), ("b", "r", "a\n")]
        write_triples(tmp_path / "t.txt", triples)
        path = str(tmp_path / "t.txt")
        for g in (data.build_graph(triples, [], []),
                  data.load_graph(path, path, path)):
            assert g.entities.labels == ["a", "b"]
            assert g.train.tolist() == [[0, 0, 1], [0, 0, 1], [1, 0, 0]]


class TestLoadAllocations:
    def test_load_runs_no_collection(self, tmp_path):
        """Loading makes no collector-tracked object per line, so a
        20k-line file runs no collection with the collector on."""
        rng = np.random.default_rng(11)
        path = str(tmp_path / "train.txt")
        write_triples(path, [(f"e{h}", f"r{r}", f"e{t}") for h, r, t in
                             rng.integers(0, [5000, 18, 5000],
                                          size=(20_000, 3)).tolist()])
        starts = []

        def on_collection(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        enabled = gc.isenabled()
        gc.enable()
        gc.collect()
        gc.callbacks.append(on_collection)
        try:
            g = data.load_graph(path, path, path)
        finally:
            gc.callbacks.remove(on_collection)
            if not enabled:
                gc.disable()
        assert len(g.train) == 20_000
        assert starts == []


class TestBuildGraph:
    def test_ids_follow_first_appearance(self):
        g = data.build_graph([("x", "r", "y"), ("y", "r", "z")],
                             [("w", "r", "x")], [("z", "r", "w")])
        assert g.entities.labels == ["x", "y", "z", "w"]
        assert g.entities.id("z") == 2
        assert g.relations.labels == ["r"]

    def test_gold_covers_all_splits(self):
        g = data.build_graph([("a", "r", "b")], [("b", "r", "c")],
                             [("c", "r", "a")])
        for h, r, t in g.ids.tolist():
            assert t in g.tails_by_hr[(h, r)]
            assert h in g.heads_by_rt[(r, t)]
        assert 0 not in g.tails_by_hr[(0, 0)]

    def test_candidate_indexes_are_sorted_arrays(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng)
        for arr in list(g.tails_by_hr.values()) + list(g.heads_by_rt.values()):
            assert arr.dtype == np.int64
            assert (np.diff(arr) > 0).all()

    def test_index_agrees_with_gold_set(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng)
        gold = set(map(tuple, g.ids.tolist()))
        assert gold == {(h, r, t) for (h, r), tails in g.tails_by_hr.items()
                        for t in tails.tolist()}


def set_reference(graph):
    """The per-key Python set construction the filter index and the
    training domains were first written as."""
    tails, heads, domains = {}, {}, {}
    for split in (graph.train, graph.valid, graph.test):
        for h, r, t in split.tolist():
            tails.setdefault((h, r), set()).add(t)
            heads.setdefault((r, t), set()).add(h)
    for h, r, t in graph.train.tolist():
        domains.setdefault((r, data.HEAD), set()).add(h)
        domains.setdefault((r, data.TAIL), set()).add(t)
    return tails, heads, domains


def duplicate_heavy_graph(rng):
    """Duplicates within and across splits; some entities and relations
    occur only in valid or test."""
    n_e, n_r = int(rng.integers(2, 25)), int(rng.integers(1, 6))

    def triples(n, n_ent, n_rel):
        return [(f"e{h}", f"r{r}", f"e{t}") for h, r, t in zip(
            rng.integers(0, n_ent, n), rng.integers(0, n_rel, n),
            rng.integers(0, n_ent, n))]

    train = triples(int(rng.integers(1, 120)), n_e, n_r)
    train += [train[i] for i in rng.integers(0, len(train), 20)]
    valid = triples(10, n_e + 3, n_r + 1) + [train[0], train[-1]]
    test = triples(10, n_e + 4, n_r + 2) + [valid[0], train[0]]
    return data.build_graph(train, valid, test)


def vocab_of(labels):
    return data.Vocab(blob_of(labels))


class TestVocab:
    """A vocabulary is one UTF-8 blob of its labels; lookups search it."""

    def test_prefix_labels_resolve_to_their_own_ids(self):
        # the first and the last id too, where the blob starts and ends
        labels = ["e123", "e12", "e1", "e1 ", "xe1", "e"]
        v = vocab_of(labels)
        assert [v.id(label) for label in labels] == list(range(len(labels)))
        for missing in ("e1234", "e2", "1", " ", "e1  ", "xe", "123"):
            assert v.id(missing) is None

    def test_every_label_round_trips(self):
        labels = _PLAIN_LABELS + _ODD_LABELS + [" ", "\r", "\t"]
        v = vocab_of(labels)
        assert v.labels == labels
        assert [v.id(label) for label in labels] == list(range(len(labels)))

    def test_labels_is_a_new_list_in_first_seen_order(self):
        g = data.build_graph([("b", "r", "a"), ("c", "s", "b")], [],
                             [("d", "r", "a")])
        labels = g.entities.labels
        assert type(labels) is list and labels == ["b", "a", "c", "d"]
        labels[0] = "changed"
        assert g.entities.labels == ["b", "a", "c", "d"]
        assert g.relations.labels == ["r", "s"]

    @pytest.mark.parametrize("labels", [[], ["a", "b"], ["a\rb", "\x85"]])
    def test_empty_and_line_end_labels_are_not_found(self, labels):
        v = vocab_of(labels)
        for label in ("", "a\nb", "\n", "a\n", "\udcff"):
            assert v.id(label) is None
        assert len(v) == len(labels) and v.labels == labels

    @pytest.mark.parametrize("split", range(3))
    @pytest.mark.parametrize("field", range(3))
    def test_a_label_with_a_line_end_is_refused(self, split, field):
        bad = ["h", "r", "t"]
        bad[field] = "a\nb"
        splits = [[("h", "r", "t")] for _ in range(3)]
        splits[split] = [("h", "r", "t"), tuple(bad)]
        with pytest.raises(ParseError) as err:
            data.build_graph(*splits)
        assert err.value.path == ("<train>", "<valid>", "<test>")[split]

    def test_no_object_per_label_after_a_load(self, tmp_path):
        save_graph(random_graph(np.random.default_rng(3)), str(tmp_path))
        g = data.load_graph(*(str(tmp_path / f"{name}.txt")
                              for name in ("train", "valid", "test")))
        for vocab in (g.entities, g.relations):
            assert not [value for value in vars(vocab).values()
                        if isinstance(value, (dict, list, str))]


class TestFilterIndex:
    @pytest.mark.parametrize("seed", [None, *range(7)])
    def test_equals_the_set_construction(self, seed):
        g = data.build_graph([("a", "r", "b")], [], []) if seed is None \
            else duplicate_heavy_graph(np.random.default_rng(300 + seed))
        tails, heads, doms = set_reference(g)

        for index, ref in ((g.tails_by_hr, tails), (g.heads_by_rt, heads)):
            assert len(index) == len(ref)
            keys = list(index)
            assert len(keys) == len(set(keys)) and set(keys) == set(ref)
            assert all(type(a) is int and type(b) is int for a, b in keys)
            for key, ids in ref.items():
                got = index[key]
                assert got.dtype == np.int64 and not got.flags.writeable
                assert got.tolist() == sorted(ids)

        assert domain_members(g) == {key: sorted(ids)
                                     for key, ids in doms.items()}

    def test_built_on_first_use_once_per_graph(self, monkeypatch):
        built = []
        init = data._FilterIndex.__init__

        def counting(self, *args):
            built.append(args[3:])   # n_a, n_b, n_entities
            init(self, *args)
        monkeypatch.setattr(data._FilterIndex, "__init__", counting)
        g = random_graph(np.random.default_rng(7))
        assert built == []
        for _ in range(2):
            assert len(g.tails_by_hr) > 0 and len(g.heads_by_rt) > 0
        n_e, n_r = g.n_entities, g.n_relations
        assert built == [(n_e, n_r, n_e), (n_r, n_e, n_e)]

    def test_codes_past_the_int64_range_are_refused(self):
        # (key + 1) * |E| one past 2**63 (code 2**63), and far past it
        for key, n_entities in ((2 ** 61, 4), (2 ** 61 - 1, 5)):
            with pytest.raises(DataError, match=re.escape("2**63")):
                data._index(np.array([key]), np.array([0]), n_entities)
        # the largest code, 2**63 - 1, comes back apart
        limit = np.array([2 ** 61 - 1])
        keys, starts, entities = data._index(limit, np.array([3]), 4)
        assert keys.tolist() == limit.tolist() and starts.tolist() == [0, 1]
        assert entities.tolist() == [3]
        keys, starts, entities = data._index(np.empty(0, dtype=np.int64),
                                             np.empty(0, dtype=np.int64), 4)
        assert len(keys) == len(entities) == 0 and starts.tolist() == [0]

    def test_train_ids_are_the_training_split(self):
        g = duplicate_heavy_graph(np.random.default_rng(9))
        splits = (g.train, g.valid, g.test)
        assert all(split.dtype == np.int64 and not split.flags.writeable
                   and np.shares_memory(split, g.ids) for split in splits)
        assert np.concatenate(splits).tolist() == g.ids.tolist()

    def test_wrapped_ids_are_not_gold(self):
        # every (h, r, t) is gold, so any wrapped id would alias one
        ents, rels = ("a", "b", "c"), ("r", "s")
        g = data.build_graph([(h, r, t) for h in ents for r in rels
                              for t in ents], [], [])
        n_e, n_r = g.n_entities, g.n_relations

        def known(h, r, t):
            tails = g.tails_by_hr.get((h, r))
            return tails is not None and t in tails.tolist()

        assert sum(map(len, g.tails_by_hr.values())) == n_e * n_r * n_e
        for h, r, t in g.train.tolist():
            assert known(h, r, t)
            for bad in ((h, r, t + n_e), (h, r, t - n_e), (h + n_e, r, t),
                        (h - n_e, r, t), (h, r + n_r, t), (h, r - n_r, t),
                        (h, -1, t), (-1, r, t), (h, r, -1)):
                assert not known(*bad)

    def test_unknown_keys_raise_key_error(self):
        g = data.build_graph([("a", "r", "b"), ("b", "r", "c")], [],
                             [("c", "s", "a")])
        r, s = g.relations.id("r"), g.relations.id("s")
        a, b, c = (g.entities.id(x) for x in "abc")
        assert set(g.tails_by_hr) == {(a, r), (b, r), (c, s)}
        assert set(g.heads_by_rt) == {(r, b), (r, c), (s, a)}
        for index, unknown in (
                (g.tails_by_hr, [(a, s), (c, r), (a, 2), (-1, r), (3, r),
                                 (a, r + 2), ("a", r), (a,), None]),
                (g.heads_by_rt, [(s, b), (r, a), (2, b), (r, -1), (r, 3),
                                 (r + 2, b), (r, "b"), (r,), None])):
            for key in unknown:
                with pytest.raises(KeyError):
                    index[key]
                assert key not in index
                assert index.get(key) is None


class TestSaveGraph:
    def test_save_then_load_is_identity(self, tmp_path):
        rng = np.random.default_rng(5)
        g = random_graph(rng)
        save_graph(g, str(tmp_path))
        g2 = data.load_graph(str(tmp_path / "train.txt"),
                             str(tmp_path / "valid.txt"),
                             str(tmp_path / "test.txt"))
        assert g2.entities.labels == g.entities.labels
        assert g2.ids.tolist() == g.ids.tolist()
        assert [len(g2.train), len(g2.valid)] == [len(g.train), len(g.valid)]

    def test_id_map_files_written(self, tmp_path):
        g = data.build_graph([("a", "r", "b")], [("a", "r", "b")],
                             [("a", "r", "b")])
        save_graph(g, str(tmp_path))
        lines = (tmp_path / "entity2id.txt").read_text().splitlines()
        assert lines == ["a\t0", "b\t1"]


class TestDomains:
    def test_only_training_split_contributes(self):
        g = data.build_graph([("a", "r", "b")], [("c", "r", "d")],
                             [("e", "r", "f")])
        doms = domain_members(g)
        r = g.relations.id("r")
        assert doms[(r, data.HEAD)] == [g.entities.id("a")]
        assert doms[(r, data.TAIL)] == [g.entities.id("b")]

    def test_members_deduplicated_and_sorted(self):
        g = data.build_graph([("b", "r", "x"), ("a", "r", "x"),
                              ("b", "r", "y")], [], [("a", "r", "y")])
        heads = domain_members(g)[(g.relations.id("r"), data.HEAD)]
        assert heads == sorted({g.entities.id("a"), g.entities.id("b")})

    @pytest.mark.parametrize("seed", range(4))
    def test_codes_ascend_and_members_are_int64(self, seed):
        g = duplicate_heavy_graph(np.random.default_rng(310 + seed))
        codes, starts, members = domains.slot_members(g)
        assert len(codes) + 1 == len(starts) > 1
        assert starts[0] == 0 and starts[-1] == len(members)
        assert (np.diff(codes) > 0).all() and members.dtype == np.int64
        assert all((np.diff(members[lo:hi]) > 0).all() and hi > lo
                   for lo, hi in zip(starts[:-1], starts[1:]))


class TestRelationCategories:
    def one_to_n_graph(self):
        # r0: one head, three tails -> hpt 1, tph 3
        triples = [("h", "r0", "t1"), ("h", "r0", "t2"), ("h", "r0", "t3")]
        return data.build_graph(triples, [], [("h", "r0", "t1")])

    def test_one_to_n_classification(self):
        g = self.one_to_n_graph()
        cats = data.classify_relations(g)
        assert cats[g.relations.id("r0")] == data.CAT_1_TO_N

    def test_one_to_n_head_corruption_prob(self):
        g = self.one_to_n_graph()
        probs = data.corrupt_head_probs(g)
        assert probs[g.relations.id("r0")] == pytest.approx(0.75)

    def test_all_four_categories(self):
        triples = [("a", "one", "b"),
                   ("a", "many_t", "c"), ("a", "many_t", "d"),
                   ("a", "many_t", "e"),
                   ("c", "many_h", "b"), ("d", "many_h", "b"),
                   ("e", "many_h", "b")]
        both = [("a", "both", f"x{i}") for i in range(4)]
        both += [(f"y{i}", "both", "b") for i in range(4)]
        g = data.build_graph(triples + both, [], [("a", "one", "b")])
        cats = data.classify_relations(g)
        rid = g.relations.id
        assert cats[rid("one")] == data.CAT_1_TO_1
        assert cats[rid("many_t")] == data.CAT_1_TO_N
        assert cats[rid("many_h")] == data.CAT_N_TO_1
        assert cats[rid("both")] == data.CAT_N_TO_N

    def test_threshold_is_exclusive(self):
        # hpt exactly 1.5 must stay on the "one" side
        triples = [("h1", "r", "t1"), ("h2", "r", "t1"), ("h3", "r", "t2")]
        g = data.build_graph(triples, [], [("h1", "r", "t1")])
        assert data.classify_relations(g)[g.relations.id("r")] == data.CAT_1_TO_1

    def test_duplicate_triples_do_not_skew_stats(self):
        triples = [("h", "r", "t"), ("h", "r", "t"), ("h", "r", "t")]
        g = data.build_graph(triples, [], [("h", "r", "t")])
        probs = data.corrupt_head_probs(g)
        assert probs[g.relations.id("r")] == pytest.approx(0.5)

    def test_unseen_relation_gets_neutral_prob(self):
        g = data.build_graph([("a", "r0", "b")], [("a", "r1", "b")],
                             [("a", "r1", "b")])
        probs = data.corrupt_head_probs(g)
        assert probs[g.relations.id("r1")] == pytest.approx(0.5)

    @staticmethod
    def loop_stats(graph):
        """The per-triple set loop the counts were first written as."""
        pairs = {}
        for h, r, t in graph.train:
            pairs.setdefault(r, set()).add((h, t))
        hpt = np.zeros(graph.n_relations)
        tph = np.zeros(graph.n_relations)
        for r, ht in pairs.items():
            hpt[r] = len(ht) / len({t for _, t in ht})
            tph[r] = len(ht) / len({h for h, _ in ht})
        return hpt, tph

    @pytest.mark.parametrize("seed", range(6))
    def test_stats_equal_the_set_loop(self, seed):
        rng = np.random.default_rng(170 + seed)
        n_e, n_r = int(rng.integers(2, 40)), int(rng.integers(1, 8))

        def triples(n, relations):
            return [(f"e{h}", f"r{r}", f"e{t}") for h, r, t in zip(
                rng.integers(0, n_e, n), rng.choice(relations, n),
                rng.integers(0, n_e, n))]

        train = triples(int(rng.integers(1, 200)), np.arange(n_r))
        train += [train[i] for i in rng.integers(0, len(train), 30)]
        # relation n_r occurs only in held-out splits
        held_out = triples(10, np.arange(n_r + 1)) + [("e0", f"r{n_r}", "e1")]
        g = data.build_graph(train, held_out[:5], held_out[5:])
        assert g.n_relations > len({r for _, r, _ in g.train})
        hpt, tph = data._relation_stats(g)
        ref_hpt, ref_tph = self.loop_stats(g)
        assert np.array_equal(hpt, ref_hpt)
        assert np.array_equal(tph, ref_tph)

        ref_denom = ref_hpt + ref_tph
        ref_probs = np.full(g.n_relations, 0.5)
        seen = ref_denom > 0
        ref_probs[seen] = ref_tph[seen] / ref_denom[seen]
        assert np.array_equal(data.corrupt_head_probs(g), ref_probs)
        # keyed by (many tails, many heads)
        ref_cats = {(False, False): data.CAT_1_TO_1,
                    (True, False): data.CAT_1_TO_N,
                    (False, True): data.CAT_N_TO_1,
                    (True, True): data.CAT_N_TO_N}
        assert data.classify_relations(g).tolist() == [
            ref_cats[tph > data.CATEGORY_THRESHOLD,
                     hpt > data.CATEGORY_THRESHOLD]
            for hpt, tph in zip(ref_hpt.tolist(), ref_tph.tolist())]
