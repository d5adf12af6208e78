from dataclasses import replace

import numpy as np
import pytest

from drekge import data, domains
from drekge.domains import (DomainModel, fit_all_domains, load_domains,
                            penalties_all, penalty, save_domains)
from drekge.ellipsoid import Ellipsoid, FitConfig, fit, scores_train
from drekge.errors import (ConfigurationError, FormatError,
                           StaleDomainModelError)
from drekge.models import TrainConfig, project_all, train

from generators import random_domain_model, random_graph, random_model


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
        doms = data.extract_domains(g)
        for key, d in doms.items():
            if len(d.members) >= domains.MIN_MEMBERS:
                assert key in dm.ellipsoids
            else:
                assert key in dm.skipped
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
        assert (solo, data.HEAD) in dm.skipped
        assert (solo, data.TAIL) in dm.skipped
        assert penalty(dm, m, g.entities.id("c"), solo, data.HEAD) == 0.0
        assert penalties_all(dm, m, solo, data.HEAD) is None

    def test_min_members_is_adjustable(self):
        g = data.build_graph([("a", "r", "b"), ("c", "r", "b")],
                             [], [("a", "r", "b")])
        rng = np.random.default_rng(93)
        m = random_model(rng, g)
        assert (g.relations.id("r"), data.TAIL) in quick_fit(g, m).skipped
        dm = quick_fit(g, m, min_members=1)
        assert (g.relations.id("r"), data.TAIL) in dm.ellipsoids

    def test_fit_uses_projected_coordinates(self):
        rng = np.random.default_rng(94)
        g = random_graph(rng)
        m = random_model(rng, g, variant="stranse")
        dm = quick_fit(g, m)
        doms = data.extract_domains(g)
        key = max(doms, key=lambda k: len(doms[k].members))
        members = np.array(doms[key].members)
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
        doms = data.extract_domains(g)
        assert len(seen) == len(doms)
        for r, s, n, score in seen:
            assert n == len(doms[(r, s)].members)
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
        doms = data.extract_domains(g)
        assert dm.ellipsoids
        for (r, side), ell in dm.ellipsoids.items():
            members = np.array(doms[(r, side)].members)
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
            assert seen[(r, side)] == scores_train(ell, points).mean()

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
        return DomainModel(model.rel_dim, model.fingerprint(), ells, ())

    def test_inside_zero_outside_positive(self):
        rng = np.random.default_rng(101)
        g = random_graph(rng, n_entities=6)
        m = random_model(rng, g)
        m.entity_vecs[0] = 0.1
        m.entity_vecs[1] = 5.0
        dm = self.sphere_domain(m)
        assert penalty(dm, m, 0, 0, data.HEAD) == 0.0
        assert penalty(dm, m, 1, 0, data.HEAD) > 0.0

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(102)
        g = random_graph(rng, n_entities=15)
        m = random_model(rng, g, variant="transr")
        dm = random_domain_model(rng, g, m)
        for (r, side), _ in dm.ellipsoids.items():
            pens = penalties_all(dm, m, r, side)
            for e in range(g.n_entities):
                assert pens[e] == pytest.approx(penalty(dm, m, e, r, side),
                                                rel=1e-12, abs=1e-12)

    def test_stale_model_is_refused(self):
        rng = np.random.default_rng(103)
        g = random_graph(rng)
        m = random_model(rng, g)
        dm = random_domain_model(rng, g, m)
        m2 = random_model(rng, g)  # different weights, same shapes
        with pytest.raises(StaleDomainModelError):
            penalty(dm, m2, 0, 0, data.HEAD)
        with pytest.raises(StaleDomainModelError):
            penalties_all(dm, m2, 0, data.HEAD)


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
        assert back.skipped == dm.skipped
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

    def test_non_finite_and_non_positive_diagonals_are_rejected(
            self, tmp_path):
        rng = np.random.default_rng(115)
        g = random_graph(rng)
        m = random_model(rng, g)
        path = str(tmp_path / "dom.bin")
        for attr, index, value in (("center", 0, np.nan),
                                   ("factor", (1, 0), np.inf),
                                   ("factor", (2, 2), 0.0),
                                   ("factor", (0, 0), -0.5)):
            dm = random_domain_model(rng, g, m, coverage=1.0)
            getattr(next(iter(dm.ellipsoids.values())), attr)[index] = value
            save_domains(dm, path)
            with pytest.raises(FormatError):
                load_domains(path)

    def test_fingerprint_survives_the_file(self, tmp_path):
        rng = np.random.default_rng(114)
        g = random_graph(rng)
        m = random_model(rng, g)
        back = self.roundtrip(random_domain_model(rng, g, m), tmp_path)
        domains.check_compatible(back, m)
        m2 = random_model(rng, g)
        with pytest.raises(StaleDomainModelError):
            domains.check_compatible(back, m2)
