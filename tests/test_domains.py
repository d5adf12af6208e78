from dataclasses import replace

import numpy as np
import pytest

from drekge import data, domains
from drekge.domains import (fit_all_domains, load_domains, penalties_all,
                            save_domains)
from drekge.ellipsoid import (Ellipsoid, FitConfig, fit, fit_stack,
                              score_test, scores_train_stack)
from drekge.errors import (ConfigurationError, FormatError,
                           NumericalError, StaleDomainModelError)
from drekge.models import TrainConfig, project_all, project_slots, train

from generators import (domain_members, domain_model, random_domain_model,
                        random_ellipsoid, random_graph, random_model)


def quick_fit(graph, model, **kw):
    cfg = FitConfig(lr=1e-5, epochs=kw.pop("epochs", 30), batch_size=16,
                    seed=kw.pop("seed", 0))
    return fit_all_domains(graph, model, cfg, **kw)


class TestFitAllDomains:
    def test_every_big_enough_domain_gets_an_ellipsoid(self):
        rng = np.random.default_rng(91)
        g = random_graph(rng)
        m = random_model(rng, g)
        dm = quick_fit(g, m)
        doms = domain_members(g)
        flags = {data.HEAD: 0, data.TAIL: 1}
        for key, ids in doms.items():
            if len(ids) >= domains.MIN_MEMBERS:
                assert key in dm.ellipsoids
            else:
                assert (key[0], flags[key[1]]) in dm.skipped.tolist()
        assert dm.rel_dim == m.rel_dim
        assert dm.model_fingerprint == m.fingerprint()

    def test_small_domains_are_skipped(self):
        g = data.build_graph([("a", "solo", "b"),
                              ("a", "r", "b"), ("c", "r", "d")],
                             [], [("a", "r", "b")])
        rng = np.random.default_rng(92)
        m = random_model(rng, g)
        dm = quick_fit(g, m)
        solo = g.relations.id("solo")
        assert [(solo, 0), (solo, 1)] == [
            slot for slot in dm.skipped.tolist() if slot[0] == solo]
        assert penalties_all(dm, m, solo, data.HEAD) is None

    def test_min_members_is_adjustable(self):
        g = data.build_graph([("a", "r", "b"), ("c", "r", "b")],
                             [], [("a", "r", "b")])
        rng = np.random.default_rng(93)
        m = random_model(rng, g)
        assert (g.relations.id("r"), 1) in quick_fit(g, m).skipped.tolist()
        dm = quick_fit(g, m, min_members=1)
        assert (g.relations.id("r"), data.TAIL) in dm.ellipsoids

    def test_fit_uses_projected_coordinates(self):
        rng = np.random.default_rng(94)
        g = random_graph(rng)
        m = random_model(rng, g, variant="stranse")
        dm = quick_fit(g, m)
        doms = domain_members(g)
        key = max(doms, key=lambda k: len(doms[k]))
        members = np.array(doms[key])
        proj = project_all(m, key[0], key[1])[members]
        ell = dm.ellipsoids[key]
        # the fitted center starts at the projected member mean and barely
        # moves at this learning rate
        assert np.linalg.norm(ell.center - proj.mean(axis=0)) < 0.5

    def test_rerun_is_bit_identical(self):
        rng = np.random.default_rng(96)
        g = random_graph(rng)
        m = random_model(rng, g)
        a, b = quick_fit(g, m), quick_fit(g, m)
        for key in a.ellipsoids:
            assert (a.ellipsoids[key].center == b.ellipsoids[key].center).all()
            assert (a.ellipsoids[key].factor == b.ellipsoids[key].factor).all()

    def test_extra_relations_do_not_disturb_existing_fits(self):
        # per-domain seeding depends on the relation, not on how many
        # domains happen to be fitted alongside it
        rng = np.random.default_rng(97)
        g = random_graph(rng, n_relations=3)
        m = random_model(rng, g)
        small = quick_fit(g, m)

        labels = g.entities.labels
        extra = [(labels[0], "r_extra", labels[i]) for i in range(1, 4)]
        to_labels = lambda split: [(labels[h], g.relations.labels[r], labels[t])
                                   for h, r, t in split]
        g2 = data.build_graph(to_labels(g.train) + extra, to_labels(g.valid),
                              to_labels(g.test))
        assert g2.n_entities == g.n_entities
        m2 = random_model(np.random.default_rng(0), g2)
        m2.entity_vecs = m.entity_vecs  # same points, one more relation row
        big = quick_fit(g2, m2)
        for key, ell in small.ellipsoids.items():
            assert (big.ellipsoids[key].center == ell.center).all()
            assert (big.ellipsoids[key].factor == ell.factor).all()

    def test_callback_reports_every_domain(self):
        rng = np.random.default_rng(98)
        g = random_graph(rng)
        m = random_model(rng, g)
        seen = []
        quick_fit(g, m, on_domain=lambda r, s, n, score: seen.append((r, s, n, score)))
        doms = domain_members(g)
        assert len(seen) == len(doms)
        for r, s, n, score in seen:
            assert n == len(doms[(r, s)])
            assert (score is None) == (n < domains.MIN_MEMBERS)

    @pytest.mark.parametrize("variant", ["transe", "transr", "stranse"])
    def test_each_fit_sees_only_its_projected_members(self, variant):
        rng = np.random.default_rng(100)
        g = random_graph(rng)
        m = random_model(rng, g, variant=variant)
        cfg = FitConfig(lr=1e-5, epochs=30, batch_size=16, seed=5)
        seen = {}

        def on_domain(r, side, n_members, score):
            seen[(r, side)] = score

        dm = fit_all_domains(g, m, cfg, on_domain=on_domain)
        doms = domain_members(g)
        assert dm.ellipsoids
        for (r, side), ell in dm.ellipsoids.items():
            members = np.array(doms[(r, side)])
            if variant == "transe":
                points = m.entity_vecs[members]
            else:
                proj = m.tail_proj if variant == "stranse" \
                    and side == data.TAIL else m.head_proj
                points = m.entity_vecs[members] @ proj[r].T
            flag = 0 if side == data.HEAD else 1
            alone = fit(points, replace(
                cfg, seed=domains._domain_seed(cfg.seed, r, flag)))
            assert (ell.center == alone.center).all()
            assert (ell.factor == alone.factor).all()
            assert seen[(r, side)] == scores_train_stack(
                ell.center[None], ell.factor[None], points[None])[0].mean()

    def test_equal_size_domains_fit_as_if_alone(self):
        # every slot has three members, so all eight domains are fitted
        # as one stack; the clouds hold the fitter's special cases
        triples = [("e0", "r0", "e3"), ("e1", "r0", "e4"), ("e2", "r0", "e5"),
                   ("e3", "r1", "e0"), ("e4", "r1", "e1"), ("e6", "r1", "e2"),
                   ("e5", "r2", "e1"), ("e6", "r2", "e3"), ("e7", "r2", "e7"),
                   ("e0", "r3", "e2"), ("e1", "r3", "e4"), ("e2", "r3", "e6")]
        g = data.build_graph(triples, [], triples[:1])
        m = random_model(np.random.default_rng(104), g, dim=3)
        vecs = {"e0": [0, 0, 0], "e1": [1, 2, 0], "e2": [-1, -2, 0],
                "e3": [2, 1, 0], "e4": [2, 1, 0], "e5": [0, 3, 0],
                "e6": [-3, 1, 0], "e7": [1, -1, 0]}
        for label, vec in vecs.items():
            m.entity_vecs[g.entities.id(label)] = vec
        m.entity_vecs[:, 2] = 0.5                # a constant axis
        # {e0, e1, e2} has its mean exactly at e0; {e3, e4, .} repeats a row
        cfg = FitConfig(lr=0.05, epochs=4, batch_size=2, seed=9)
        doms = domain_members(g)
        assert [len(ids) for ids in doms.values()] == [3] * 8

        dm = fit_all_domains(g, m, cfg)
        assert len(dm.ellipsoids) == 8
        for (r, side), ell in dm.ellipsoids.items():
            members = np.array(doms[(r, side)])
            alone = fit(m.entity_vecs[members], replace(
                cfg, seed=domains._domain_seed(cfg.seed, r,
                                               0 if side == data.HEAD else 1)))
            assert (ell.center == alone.center).all()
            assert (ell.factor == alone.factor).all()

    def test_capped_stacks_fit_the_same_records(self, monkeypatch):
        # one domain per stack gives byte-identical records and scores
        rng = np.random.default_rng(109)
        g = random_graph(rng, n_relations=6)
        m = random_model(rng, g)
        sizes = [len(ids) for ids in domain_members(g).values()]
        assert len(set(sizes)) < len(sizes)     # some stack holds two
        seen = {}

        def fit_with(stack_bytes):
            monkeypatch.setattr(domains, "STACK_BYTES", stack_bytes)
            scores = seen.setdefault(stack_bytes, [])
            return quick_fit(g, m, on_domain=lambda *a: scores.append(a))

        whole, split = fit_with(domains.STACK_BYTES), fit_with(1)
        assert whole.fitted.tobytes() == split.fitted.tobytes()
        assert whole.skipped.tobytes() == split.skipped.tobytes()
        assert seen[domains.STACK_BYTES] == seen[1]

    def test_stacks_hold_at_most_stack_bytes(self, monkeypatch):
        # a stack of several clouds holds at most STACK_BYTES in each of
        # its (G, m, d) member vectors, (G, k, d) matrices, (G, m, k)
        # clouds, and (G, k, k) factors with their step's (G, k + 1, k)
        # gradient product; the transr model's entity space is three
        # times its relation space
        for variant, dim in (("transe", 4), ("transr", 12)):
            rng = np.random.default_rng(104)
            # many slots share a member count, so the cap splits their
            # groups
            g = random_graph(rng, n_entities=40, n_relations=40,
                             n_train=240)
            m = random_model(rng, g, variant=variant, dim=dim, rel_dim=4)
            # room for four of the smallest domains
            monkeypatch.setattr(domains, "STACK_BYTES", 8 * dim * 2 * 4 * 4)
            shapes = []

            def recording(points, *args):
                shapes.append(points.shape)
                return fit_stack(points, *args)
            monkeypatch.setattr(domains, "fit_stack", recording)
            quick_fit(g, m, epochs=2)
            stacks = [(n, size, k) for n, size, k in shapes if n > 1]
            assert stacks and len(stacks) < len(shapes)
            for n, size, k in stacks:
                assert 8 * n * size * dim <= domains.STACK_BYTES
                assert 8 * n * k * dim <= domains.STACK_BYTES
                assert 8 * n * size * k <= domains.STACK_BYTES
                assert 8 * n * k * (2 * k + 1) <= domains.STACK_BYTES

    def test_callback_runs_in_slot_order(self):
        rng = np.random.default_rng(105)
        g = random_graph(rng, n_relations=6)
        m = random_model(rng, g)
        seen = []
        quick_fit(g, m, on_domain=lambda r, s, n, score: seen.append((r, s)))
        assert seen == sorted(domain_members(g),
                              key=lambda key: (key[0], key[1] == data.TAIL))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_diverged_fit_names_the_first_domain(self):
        rng = np.random.default_rng(108)
        g = random_graph(rng)
        m = random_model(rng, g)
        relation, side = min(quick_fit(g, m, epochs=1).ellipsoids,
                             key=lambda key: (key[0], key[1] == data.TAIL))
        with pytest.raises(NumericalError, match=f"domain r{relation}/{side}"
                                                 f": fit diverged"):
            fit_all_domains(g, m, FitConfig(lr=1e300, epochs=3))

    def test_model_graph_mismatch_rejected(self):
        rng = np.random.default_rng(99)
        g = random_graph(rng)
        m = random_model(rng, random_graph(np.random.default_rng(1),
                                           n_entities=7))
        with pytest.raises(ConfigurationError):
            quick_fit(g, m)


class TestPenalty:
    def sphere_domain(self, model, rel=0):
        ells = {(rel, data.HEAD): Ellipsoid(np.zeros(model.rel_dim),
                                            np.eye(model.rel_dim))}
        return domain_model(model.rel_dim, model.fingerprint(), ells)

    def test_inside_zero_outside_positive(self):
        rng = np.random.default_rng(101)
        g = random_graph(rng, n_entities=6)
        m = random_model(rng, g)
        m.entity_vecs[0] = 0.1
        m.entity_vecs[1] = 5.0
        dm = self.sphere_domain(m)
        assert penalties_all(dm, m, 0, data.HEAD)[0] == 0.0
        assert penalties_all(dm, m, 0, data.HEAD)[1] > 0.0

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(102)
        g = random_graph(rng, n_entities=15)
        m = random_model(rng, g, variant="transr")
        dm = random_domain_model(rng, g, m)
        for (r, side), ell in dm.ellipsoids.items():
            pens = penalties_all(dm, m, r, side)
            for e in range(g.n_entities):
                alone = score_test(ell, project_slots(
                    m, np.array([[e]]), np.array([r]), [side])[0, 0])
                assert pens[e] == pytest.approx(alone, rel=1e-12, abs=1e-12)

    def test_stale_model_is_refused(self):
        rng = np.random.default_rng(103)
        g = random_graph(rng)
        m = random_model(rng, g)
        dm = random_domain_model(rng, g, m)
        m2 = random_model(rng, g)  # different weights, same shapes
        with pytest.raises(StaleDomainModelError):
            penalties_all(dm, m2, 0, data.HEAD)


    @pytest.mark.parametrize("variant", ["transe", "transr", "stranse"])
    @pytest.mark.parametrize("side", ["Head", "heads", "tails"])
    def test_an_unknown_side_is_refused(self, variant, side):
        rng = np.random.default_rng(104)
        g = random_graph(rng)
        m = random_model(rng, g, variant=variant, dim=8)
        dm = random_domain_model(rng, g, m, coverage=1.0)
        with pytest.raises(ConfigurationError, match="unknown side"):
            penalties_all(dm, m, 0, side)
        with pytest.raises(ConfigurationError, match="unknown side"):
            penalties_all(dm, m, 0, side, m.entity_vecs)


class TestSerialization:
    def roundtrip(self, dm, tmp_path):
        path = str(tmp_path / "domains.bin")
        save_domains(dm, path)
        return load_domains(path)

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(111)
        g = random_graph(rng)
        m = random_model(rng, g)
        dm = quick_fit(g, m)
        back = self.roundtrip(dm, tmp_path)
        assert back.rel_dim == dm.rel_dim
        assert back.model_fingerprint == dm.model_fingerprint
        assert back.skipped.tolist() == dm.skipped.tolist()
        assert back.fitted.tobytes() == dm.fitted.tobytes()
        assert back.ellipsoids.keys() == dm.ellipsoids.keys()
        for key, ell in dm.ellipsoids.items():
            other = back.ellipsoids[key]
            assert (ell.center == other.center).all()
            assert (ell.factor == other.factor).all()
            assert np.allclose(other.factor, np.tril(other.factor))

    def test_loaded_factors_stay_lower_triangular(self, tmp_path):
        rng = np.random.default_rng(112)
        g = random_graph(rng)
        m = random_model(rng, g)
        back = self.roundtrip(random_domain_model(rng, g, m), tmp_path)
        for ell in back.ellipsoids.values():
            assert (ell.factor == np.tril(ell.factor)).all()

    @pytest.mark.parametrize("key", [0, (0,), (0, "middle"), ("0", "head"),
                                     (0.5, "head")],
                             ids=["int", "one-tuple", "side", "str-relation",
                                  "float-relation"])
    def test_a_key_that_is_no_slot_is_missing(self, key):
        dm = domain_model(2, 0, {(0, "head"): Ellipsoid(np.zeros(2),
                                                        np.eye(2))})
        assert (0, "head") in dm.ellipsoids
        with pytest.raises(KeyError):
            dm.ellipsoids[key]
        assert dm.ellipsoids.get(key) is None

    def test_corrupted_files_are_rejected(self, tmp_path):
        rng = np.random.default_rng(113)
        g = random_graph(rng)
        m = random_model(rng, g)
        save_domains(random_domain_model(rng, g, m),
                     str(tmp_path / "dom.bin"))
        blob = open(tmp_path / "dom.bin", "rb").read()

        def expect_error(mutated):
            bad = str(tmp_path / "bad.bin")
            with open(bad, "wb") as fh:
                fh.write(mutated)
            with pytest.raises(FormatError):
                load_domains(bad)

        expect_error(b"XREDOM" + blob[6:])
        expect_error(blob.replace(b" v1 ", b" v2 ", 1))
        expect_error(blob[:-4])
        expect_error(blob + b"\0\0")
        header, rest = blob.split(b"\n", 1)
        fields = header.split(b" ")
        fields[5] = b"nothexnothexnoth"  # unparseable fingerprint
        expect_error(b" ".join(fields) + b"\n" + rest)

    @pytest.mark.parametrize("fingerprint", [
        b"-000000000000001", b"+000000000000001", b"0000_0000_0000_1",
        b"\t000000000000001", b"0x00000000000001", b"00000000000000g1",
        b"000000000000001", b"00000000000000001"])
    def test_a_garbled_fingerprint_is_a_format_error(self, tmp_path,
                                                     fingerprint):
        rng = np.random.default_rng(117)
        g = random_graph(rng)
        m = random_model(rng, g)
        path = tmp_path / "dom.bin"
        save_domains(random_domain_model(rng, g, m), str(path))
        header, rest = path.read_bytes().split(b"\n", 1)
        fields = header.split(b" ")
        # upper-case hex is not the form the writer prints
        path.write_bytes(b" ".join([*fields[:5], fields[5].upper()])
                         + b"\n" + rest)
        with pytest.raises(FormatError, match="16 hex digits"):
            load_domains(str(path))
        path.write_bytes(b" ".join([*fields[:5], fingerprint]) + b"\n"
                         + rest)
        with pytest.raises(FormatError, match="16 hex digits"):
            load_domains(str(path))

    def test_non_finite_and_non_positive_diagonals_are_rejected(
            self, tmp_path):
        rng = np.random.default_rng(115)
        g = random_graph(rng)
        m = random_model(rng, g)
        path = str(tmp_path / "dom.bin")
        # packed triangle entries 1, 5 and 0 are L[1, 0], L[2, 2], L[0, 0]
        for field, index, value in (("center", 0, np.nan),
                                    ("tril", 1, np.inf),
                                    ("tril", 5, 0.0),
                                    ("tril", 0, -0.5)):
            dm = random_domain_model(rng, g, m, coverage=1.0)
            save_domains(dm, path)
            with open(path, "rb") as fh:
                header = fh.readline()
            fitted = dm.fitted.copy()
            fitted[field][0, index] = value
            with open(path, "wb") as fh:
                fh.write(header + fitted.tobytes() + dm.skipped.tobytes())
            with pytest.raises(FormatError):
                load_domains(path)

    @pytest.mark.parametrize("where", ["fitted", "skipped",
                                       "last-fitted-as-skipped"])
    def test_a_slot_listed_twice_is_rejected(self, tmp_path, where):
        rng = np.random.default_rng(116)
        g = random_graph(rng)
        m = random_model(rng, g)
        dm = random_domain_model(rng, g, m)
        assert len(dm.ellipsoids) >= 2 and len(dm.skipped)
        path = str(tmp_path / "dom.bin")
        save_domains(dm, path)
        header, body = open(path, "rb").read().split(b"\n", 1)
        k = dm.rel_dim
        rec = 16 + 8 * (k + k * (k + 1) // 2)
        first = body[:16]                   # the first fitted slot
        at = len(dm.ellipsoids) * rec       # the first skipped slot
        if where == "fitted":
            body = body[:rec] + first + body[rec + 16:]
        elif where == "skipped":
            body = body[:at] + first + body[at + 16:]
        else:
            # the skipped records no longer sort, and the copy is not
            # next to the fitted slot it repeats
            body = body[:at] + body[at - rec:at - rec + 16] + body[at + 16:]
        with open(path, "wb") as fh:
            fh.write(header + b"\n" + body)
        with pytest.raises(FormatError, match="listed twice"):
            load_domains(path)

    def test_records_out_of_order_are_rejected(self, tmp_path):
        rng = np.random.default_rng(118)
        g = random_graph(rng)
        m = random_model(rng, g)
        dm = random_domain_model(rng, g, m, coverage=0.6)
        assert dm.n_fitted >= 2 and len(dm.skipped) >= 2
        path = tmp_path / "dom.bin"
        save_domains(dm, str(path))
        header = path.read_bytes().split(b"\n", 1)[0]
        reversed_bytes = (header + b"\n" + dm.fitted[::-1].tobytes()
                          + dm.skipped[::-1].tobytes())
        assert reversed_bytes != path.read_bytes()

        # a load never re-sorts: records out of order are broken input
        path.write_bytes(reversed_bytes)
        with pytest.raises(FormatError, match="ascending slot order"):
            load_domains(str(path))

    def test_records_out_of_order_are_refused_when_built(self):
        rng = np.random.default_rng(118)
        g = random_graph(rng)
        m = random_model(rng, g)
        dm = random_domain_model(rng, g, m, coverage=1.0)
        assert dm.n_fitted >= 2
        # every lookup of such a model would miss
        with pytest.raises(FormatError, match="ascending slot order"):
            replace(dm, fitted=dm.fitted[::-1].copy())

    def test_records_are_read_only_once_checked(self):
        rng = np.random.default_rng(119)
        g = random_graph(rng)
        dm = quick_fit(g, random_model(rng, g), min_members=12)
        assert dm.n_fitted >= 2 and len(dm.skipped) >= 2
        # a reorder would leave the cached slot codes naming other slots
        with pytest.raises(ValueError, match="read-only"):
            dm.fitted[:] = dm.fitted[::-1].copy()
        with pytest.raises(ValueError, match="read-only"):
            dm.skipped[:] = dm.skipped[::-1].copy()
        with pytest.raises(ValueError, match="read-only"):
            dm.fitted["center"][0] = np.nan

    def test_fingerprint_survives_the_file(self, tmp_path):
        rng = np.random.default_rng(114)
        g = random_graph(rng)
        m = random_model(rng, g)
        back = self.roundtrip(random_domain_model(rng, g, m), tmp_path)
        domains.check_compatible(back, m)
        m2 = random_model(rng, g)
        with pytest.raises(StaleDomainModelError):
            domains.check_compatible(back, m2)


class TestRecordSize:
    """Records whose center or packed triangle is not of the model's
    ``rel_dim`` are refused when the model is built."""

    @pytest.mark.parametrize("k", [4, 8])
    def test_records_of_another_dimension_are_refused(self, k):
        ell = random_ellipsoid(np.random.default_rng(105), k)
        dm = domain_model(k, 0, {(0, "head"): ell})
        with pytest.raises(FormatError, match="not of dimension 6"):
            domains.DomainModel(6, 0, dm.fitted, dm.skipped)

    def test_a_triangle_of_another_dimension_is_refused(self):
        record = np.dtype([*domains._SLOT.descr, ("center", "<f8", (6,)),
                           ("tril", "<f8", (15,))])
        fitted = np.zeros(1, dtype=record)
        fitted["tril"] = 1.0
        with pytest.raises(FormatError, match="not of dimension 6"):
            domains.DomainModel(6, 0, fitted,
                                np.zeros(0, dtype=domains._SLOT))
