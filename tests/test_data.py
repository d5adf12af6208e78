import numpy as np
import pytest

from drekge import data
from drekge.errors import ParseError

from generators import random_graph, save_graph
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
        assert [data._parse_file(p) for p in paths] == ref
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


class TestFilterIndex:
    @pytest.mark.parametrize("seed", [None, *range(7)])
    def test_equals_the_set_construction(self, seed):
        g = data.build_graph([("a", "r", "b")], [], []) if seed is None \
            else duplicate_heavy_graph(np.random.default_rng(300 + seed))
        tails, heads, domains = set_reference(g)

        for index, ref in ((g.tails_by_hr, tails), (g.heads_by_rt, heads)):
            assert len(index) == len(ref)
            keys = list(index)
            assert len(keys) == len(set(keys)) and set(keys) == set(ref)
            assert all(type(a) is int and type(b) is int for a, b in keys)
            for key, ids in ref.items():
                got = index[key]
                assert got.dtype == np.int64 and not got.flags.writeable
                assert got.tolist() == sorted(ids)

        assert data.extract_domains(g) == {
            key: data.Domain(key[0], key[1], tuple(sorted(ids)))
            for key, ids in domains.items()}

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
        doms = data.extract_domains(g)
        r = g.relations.id("r")
        assert doms[(r, data.HEAD)].members == (g.entities.id("a"),)
        assert doms[(r, data.TAIL)].members == (g.entities.id("b"),)

    def test_members_deduplicated_and_sorted(self):
        g = data.build_graph([("b", "r", "x"), ("a", "r", "x"),
                              ("b", "r", "y")], [], [("a", "r", "y")])
        doms = data.extract_domains(g)
        heads = doms[(g.relations.id("r"), data.HEAD)].members
        assert heads == tuple(sorted({g.entities.id("a"), g.entities.id("b")}))


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
