import itertools
import json
import logging
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import drekge
from drekge import cli, data, models
from drekge.cli import PRESETS, build_parser, main
from drekge.evaluation import evaluate, format_report
from drekge.domains import (fit_all_domains, load_domains, penalties_all,
                            save_domains)
from drekge.ellipsoid import Ellipsoid, FitConfig
from drekge.models import (TrainConfig, load_model, save_model, score_triple,
                           train)

from generators import domain_model, random_graph, save_graph


def _edit_distance(a: str, b: str) -> int:
    """Levenshtein distance over code points, one row at a time."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


@pytest.fixture()
def dataset(tmp_path):
    rng = np.random.default_rng(151)
    g = random_graph(rng, n_entities=16, n_relations=2, n_train=40,
                     n_valid=5, n_test=6)
    d = tmp_path / "data"
    save_graph(g, str(d))
    return {"graph": g,
            "args": ["--train", str(d / "train.txt"),
                     "--valid", str(d / "valid.txt"),
                     "--test", str(d / "test.txt")]}


@pytest.fixture()
def foreign(tmp_path):
    """A model and its domain file, made on a graph with other entity and
    relation counts than ``dataset``'s."""
    g = random_graph(np.random.default_rng(152), n_entities=30,
                     n_relations=3, n_train=60, n_valid=5, n_test=6)
    d = tmp_path / "other"
    save_graph(g, str(d))
    args = ["--train", str(d / "train.txt"), "--valid", str(d / "valid.txt"),
            "--test", str(d / "test.txt")]
    model = str(tmp_path / "foreign.bin")
    doms = str(tmp_path / "foreign-domains.bin")
    assert main(["train", *args, "--dim", "6", "--epochs", "2",
                 "--out", model]) == 0
    assert main(["fit-domains", *args, "--model", model, "--fit-epochs", "2",
                 "--out", doms]) == 0
    return g, model, doms


@pytest.fixture()
def walkthrough(tmp_path):
    """The triple-file flags of the README walkthrough's graph."""
    d = tmp_path / "walk"
    save_graph(random_graph(np.random.default_rng(0)), str(d))
    return ["--train", str(d / "train.txt"), "--valid", str(d / "valid.txt"),
            "--test", str(d / "test.txt")]


def run_train(dataset, out, extra=()):
    return main(["train", *dataset["args"], "--dim", "6", "--epochs", "3",
                 "--lr", "0.01", "--seed", "3", "--out", out, *extra])


class TestPipeline:
    def test_train_fit_evaluate_predict(self, dataset, tmp_path, capsys):
        model = str(tmp_path / "model.bin")
        doms = str(tmp_path / "domains.bin")
        report = str(tmp_path / "report.txt")
        csv = str(tmp_path / "metrics.csv")

        assert run_train(dataset, model) == 0
        assert os.path.exists(model)

        assert main(["fit-domains", *dataset["args"], "--model", model,
                     "--fit-epochs", "5", "--out", doms]) == 0
        assert os.path.exists(doms)

        assert main(["evaluate", *dataset["args"], "--model", model,
                     "--domains", doms, "--report-out", report,
                     "--csv-out", csv]) == 0
        text = open(report).read()
        assert "# baseline" in text
        assert "# with domain penalty" in text
        lines = open(csv).read().splitlines()
        assert lines[0] == "setting,side,category,metric,baseline,with_domains,delta"
        assert len(lines) > 8

        capsys.readouterr()
        label = dataset["graph"].entities.labels[0]
        rel = dataset["graph"].relations.labels[0]
        assert main(["predict", *dataset["args"], "--model", model,
                     "--domains", doms, "--relation", rel,
                     "--head", label, "--top", "5"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("rank\tentity")
        assert len(out) == 6
        assert out[1].split("\t")[5] in ("in", "out")

    @pytest.mark.parametrize("anchor", ["--head", "--tail"])
    def test_predict_rows_match_the_library(self, dataset, tmp_path, capsys,
                                            anchor):
        model = str(tmp_path / "m.bin")
        doms = str(tmp_path / "d.bin")
        run_train(dataset, model)
        assert main(["fit-domains", *dataset["args"], "--model", model,
                     "--fit-epochs", "3", "--out", doms]) == 0
        g = dataset["graph"]
        capsys.readouterr()
        assert main(["predict", *dataset["args"], "--model", model,
                     "--domains", doms, "--relation", g.relations.labels[1],
                     anchor, g.entities.labels[2], "--top", "4"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]

        m, dm = load_model(model), load_domains(doms)
        side = data.TAIL if anchor == "--head" else data.HEAD
        # each candidate scored on its own, through the training path
        base = np.array([score_triple(m, (2, 1, e) if side == data.TAIL
                                      else (e, 1, 2))
                         for e in range(g.n_entities)])
        pens = penalties_all(dm, m, 1, side)
        pens = np.zeros_like(base) if pens is None else pens
        combined = base + pens
        order = np.argsort(combined, kind="stable")[:4]
        assert len(rows) == 4
        for row, e in zip(rows, order):
            fields = row.split("\t")
            assert fields[1:5] == [g.entities.labels[e], f"{base[e]:.6f}",
                                   f"{pens[e]:.6f}", f"{combined[e]:.6f}"]

    def test_baseline_block_is_the_plain_report(self, dataset, tmp_path):
        model = str(tmp_path / "m.bin")
        doms = str(tmp_path / "d.bin")
        report = str(tmp_path / "r.txt")
        run_train(dataset, model)
        assert main(["fit-domains", *dataset["args"], "--model", model,
                     "--fit-epochs", "3", "--out", doms]) == 0
        assert main(["evaluate", *dataset["args"], "--model", model,
                     "--domains", doms, "--report-out", report]) == 0
        g = data.load_graph(*dataset["args"][1::2])
        baseline = format_report(evaluate(g, load_model(model)),
                                 title="baseline")
        text = open(report).read()
        assert text.startswith(baseline)
        assert text[len(baseline):].startswith("# with domain penalty\n")

    def test_evaluate_without_domains_uses_plain_csv(self, dataset, tmp_path):
        model = str(tmp_path / "m.bin")
        csv = str(tmp_path / "m.csv")
        run_train(dataset, model)
        assert main(["evaluate", *dataset["args"], "--model", model,
                     "--csv-out", csv, "--report-out",
                     str(tmp_path / "r.txt")]) == 0
        head = open(csv).read().splitlines()[0]
        assert head == "setting,side,category,metric,value"

    def test_training_is_reproducible_across_runs(self, dataset, tmp_path):
        a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        run_train(dataset, a)
        run_train(dataset, b)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_unset_train_options_keep_the_library_defaults(self, dataset,
                                                          tmp_path):
        out = tmp_path / "cli.bin"
        assert main(["train", *dataset["args"], "--dim", "6", "--epochs",
                     "3", "--lr", "0.01", "--seed", "3", "--margin", "1",
                     "--out", str(out)]) == 0
        # 3 epochs end before the first validation
        g = data.load_graph(*dataset["args"][1::2])
        lib = tmp_path / "lib.bin"
        save_model(train(g, TrainConfig(dim=6, epochs=3, lr=0.01, seed=3,
                                        margin=1.0)), str(lib))
        assert out.read_bytes() == lib.read_bytes()

    def test_unset_fit_options_keep_the_library_defaults(self, dataset,
                                                        tmp_path):
        model = str(tmp_path / "m.bin")
        run_train(dataset, model)
        out = tmp_path / "cli.bin"
        assert main(["fit-domains", *dataset["args"], "--model", model,
                     "--fit-epochs", "4", "--seed", "2", "--fit-batch", "3",
                     "--out", str(out)]) == 0
        g = data.load_graph(*dataset["args"][1::2])
        lib = tmp_path / "lib.bin"
        save_domains(fit_all_domains(g, load_model(model),
                                     FitConfig(epochs=4, seed=2,
                                               batch_size=3)), str(lib))
        assert out.read_bytes() == lib.read_bytes()

    def test_domains_all_skipped_leave_every_prediction_missing(
            self, dataset, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="drekge")
        model, doms = str(tmp_path / "m.bin"), str(tmp_path / "d.bin")
        report = tmp_path / "r.txt"
        run_train(dataset, model)
        g = dataset["graph"]
        assert main(["fit-domains", *dataset["args"], "--model", model,
                     "--min-members", str(len(g.train) + 1),
                     "--fit-epochs", "1", "--out", doms]) == 0
        n_domains = 2 * len(np.unique(g.train[:, 1]))
        assert caplog.text.count("members, skipped") == n_domains
        assert load_domains(doms).n_fitted == 0
        assert main(["evaluate", *dataset["args"], "--model", model,
                     "--domains", doms, "--report-out", str(report)]) == 0
        assert f"missing_domain_predictions={2 * len(g.test)}" \
            in report.read_text().splitlines()

    @pytest.mark.parametrize("flags, settings", [
        (["--neg-sampling", "bernoulli"], {"negative_sampling": "bernoulli"}),
        (["--normalize-entities"], {"normalize_entities": True}),
        (["--split", "valid"], None)],
        ids=["neg-sampling", "normalize-entities", "split-valid"])
    def test_flags_reaching_the_relation_stats_and_the_filter_index(
            self, dataset, tmp_path, capsys, flags, settings):
        """The train flags that read the relation statistics and the
        evaluate split that ranks with the filter index."""
        g = data.load_graph(*dataset["args"][1::2])
        base = tmp_path / "base.bin"
        assert run_train(dataset, str(base)) == 0
        if settings is None:
            capsys.readouterr()
            assert main(["evaluate", *dataset["args"], "--model", str(base),
                         *flags]) == 0
            text = capsys.readouterr().out
            assert f"\nn_test={len(g.valid)}\n" in text
            assert len(g.valid) != len(g.test)
            assert text.startswith(format_report(
                evaluate(g, load_model(str(base)), split="valid"),
                title="baseline"))
            return
        out = tmp_path / "cli.bin"
        assert run_train(dataset, str(out), flags) == 0
        # 3 epochs end before the first validation
        lib = tmp_path / "lib.bin"
        save_model(train(g, TrainConfig(dim=6, epochs=3, lr=0.01, seed=3,
                                        **settings)), str(lib))
        assert out.read_bytes() == lib.read_bytes() != base.read_bytes()

    @pytest.mark.parametrize("variant", ["transr", "stranse"])
    def test_staged_variant_via_init_flag(self, dataset, tmp_path, variant):
        base = str(tmp_path / "transe.bin")
        out = str(tmp_path / f"{variant}.bin")
        doms = str(tmp_path / "domains.bin")
        run_train(dataset, base)
        assert main(["train", *dataset["args"], "--variant", variant,
                     "--dim", "6", "--epochs", "2", "--seed", "0",
                     "--init-model", base, "--out", out]) == 0
        assert load_model(out).variant == variant
        # and on through every later stage
        assert main(["fit-domains", *dataset["args"], "--model", out,
                     "--fit-epochs", "2", "--out", doms]) == 0
        assert main(["evaluate", *dataset["args"], "--model", out,
                     "--domains", doms]) == 0
        g = dataset["graph"]
        assert main(["predict", *dataset["args"], "--model", out,
                     "--domains", doms, "--relation", g.relations.labels[0],
                     "--head", g.entities.labels[0]]) == 0

    def test_preset_fills_unset_options(self, dataset, tmp_path):
        out = str(tmp_path / "preset.bin")
        assert main(["train", *dataset["args"], "--dataset", "wn18",
                     "--epochs", "1", "--out", out]) == 0
        assert load_model(out).dim == 50  # from the preset, not the default

    def test_config_file_supplies_defaults(self, dataset, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dim": 7, "epochs": 2, "lr": 0.005}))
        out = str(tmp_path / "cfg.bin")
        assert main(["train", *dataset["args"], "--config", str(cfg),
                     "--out", out]) == 0
        assert load_model(out).dim == 7

    def test_flags_beat_config_file(self, dataset, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dim": 7}))
        out = str(tmp_path / "cfg.bin")
        assert main(["train", *dataset["args"], "--config", str(cfg),
                     "--dim", "5", "--epochs", "1", "--out", out]) == 0
        assert load_model(out).dim == 5

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_config_file_supplies_the_triple_files(self, dataset, tmp_path,
                                                   capsys, command):
        model = str(tmp_path / "m.bin")
        run_train(dataset, model)
        g = dataset["graph"]
        extra = ["--model", model]
        if command == "predict":
            extra += ["--relation", g.relations.labels[0],
                      "--head", g.entities.labels[0]]
        capsys.readouterr()
        assert main([command, *dataset["args"], *extra]) == 0
        want = capsys.readouterr().out
        paths = dict(zip(("train", "valid", "test"), dataset["args"][1::2]))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(paths))
        assert main([command, "--config", str(cfg), *extra]) == 0
        assert capsys.readouterr().out == want

        # a training option is not one of this command's keys
        cfg.write_text(json.dumps({**paths, "dim": 7}))
        assert main([command, "--config", str(cfg), *extra]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "unknown config file keys: dim" in out.err


class TestFailureModes:
    def test_usage_errors_exit_one(self, dataset, tmp_path, capsys):
        assert main(["train", *dataset["args"], "--variant", "nope",
                     "--out", str(tmp_path / "x.bin")]) == 1
        assert main(["train", *dataset["args"]]) == 1  # --out missing
        assert main(["nonsense"]) == 1
        capsys.readouterr()
        # the other triple files, with no --train and no config file
        assert main(["train", *dataset["args"][2:],
                     "--out", str(tmp_path / "x.bin")]) == 1
        assert "error: --train is required" in capsys.readouterr().err
        assert not (tmp_path / "x.bin").exists()

    @pytest.mark.parametrize("value", [
        pytest.param(value, id=f"predict-top={value}")
        for value in ("0", "-3", "abc", "1.5")])
    def test_counts_below_one_exit_one(self, dataset, tmp_path, capsys,
                                       value):
        model = str(tmp_path / "m.bin")
        run_train(dataset, model)
        capsys.readouterr()
        g = dataset["graph"]
        assert main(["predict", *dataset["args"], "--model", model,
                     "--relation", g.relations.labels[0],
                     "--head", g.entities.labels[0], "--top", value]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "--top: must be an integer >= 1" in out.err

    @pytest.mark.parametrize("flag", ["--lr", "--margin"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_training_numbers_exit_one(self, dataset, tmp_path,
                                                  capsys, flag, value):
        out = tmp_path / "m.bin"
        assert run_train(dataset, str(out), extra=[flag, value]) == 1
        assert not out.exists()
        assert "must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--fit-lr", "nan"), ("--fit-lr", "inf")])
    def test_non_finite_fit_numbers_exit_one(self, dataset, tmp_path,
                                             capsys, flag, value):
        model = str(tmp_path / "m.bin")
        doms = tmp_path / "d.bin"
        run_train(dataset, model)
        capsys.readouterr()
        assert main(["fit-domains", *dataset["args"], "--model", model,
                     "--fit-epochs", "2", flag, value,
                     "--out", str(doms)]) == 1
        assert not doms.exists()
        assert "finite" in capsys.readouterr().err

    def test_an_overflowing_fit_exits_three_without_a_file(self, dataset,
                                                           tmp_path,
                                                           capsys):
        model = str(tmp_path / "m.bin")
        doms = tmp_path / "d.bin"
        run_train(dataset, model)
        capsys.readouterr()
        assert main(["fit-domains", *dataset["args"], "--model", model,
                     "--fit-epochs", "2", "--fit-lr", "1e300",
                     "--out", str(doms)]) == 3
        assert not doms.exists()
        err = capsys.readouterr().err
        assert "fit diverged" in err and "mean fit score" not in err
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["train", "fit-domains"])
    def test_a_negative_seed_exits_one(self, dataset, tmp_path, capsys,
                                       command, source):
        if command == "train":
            extra = ["--dim", "6", "--epochs", "1"]
        else:
            model = str(tmp_path / "m.bin")
            run_train(dataset, model)
            extra = ["--model", model, "--fit-epochs", "1"]
        if source == "flag":
            extra += ["--seed", "-1"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"seed": -1}))
            extra += ["--config", str(cfg)]
        out = tmp_path / "out.bin"
        capsys.readouterr()
        assert main([command, *dataset["args"], *extra,
                     "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "seed must be >= 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command,key,value", [
        ("train", "eval_every", -2), ("train", "patience", -1),
        ("fit-domains", "min_members", -3)])
    def test_a_negative_count_exits_one(self, dataset, tmp_path, capsys,
                                        command, key, value, source):
        if command == "train":
            extra = ["--dim", "6", "--epochs", "1"]
        else:
            model = str(tmp_path / "m.bin")
            run_train(dataset, model)
            extra = ["--model", model, "--fit-epochs", "1"]
        if source == "flag":
            extra += ["--" + key.replace("_", "-"), str(value)]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: value}))
            extra += ["--config", str(cfg)]
        out = tmp_path / "out.bin"
        capsys.readouterr()
        assert main([command, *dataset["args"], *extra,
                     "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"{key} must be >= 0" in err
        assert "Traceback" not in err

    def test_config_file_rejects_unknown_keys(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dims": 7}))
        rc = main(["train", *dataset["args"], "--config", str(cfg),
                   "--out", str(tmp_path / "x.bin")])
        assert rc == 1
        assert "dims" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("epochs", "2"), ("dim", 7.5), ("dim", True), ("lr", "0.01"),
        ("dissim", "l3"), ("dissim", 1), ("test", None)])
    def test_config_file_train_values_need_their_flag_type(
            self, dataset, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "x.bin"
        rc = main(["train", *dataset["args"], "--config", str(cfg),
                   "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"error: config file key {key!r}" in err
        assert "Traceback" not in err

    def test_config_file_has_no_diag_floor_key(self, dataset, tmp_path,
                                               capsys):
        model = str(tmp_path / "m.bin")
        run_train(dataset, model)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"diag_floor": 1e-6}))
        doms = tmp_path / "d.bin"
        capsys.readouterr()
        rc = main(["fit-domains", *dataset["args"], "--model", model,
                   "--config", str(cfg), "--out", str(doms)])
        assert rc == 1
        assert not doms.exists()
        assert "unknown config file keys: diag_floor" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("fit_epochs", 1.5), ("fit_batch", "8"), ("seed", [1])])
    def test_config_file_fit_values_need_their_flag_type(
            self, dataset, tmp_path, capsys, key, value):
        model = str(tmp_path / "m.bin")
        run_train(dataset, model)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        doms = tmp_path / "d.bin"
        capsys.readouterr()
        rc = main(["fit-domains", *dataset["args"], "--model", model,
                   "--config", str(cfg), "--out", str(doms)])
        assert rc == 1
        assert not doms.exists()
        assert f"error: config file key {key!r}" in capsys.readouterr().err

    def test_config_file_numbers_parse_as_their_flags(self, dataset,
                                                      tmp_path):
        # an integer stands for a float flag, as "1" does on the command
        # line; both runs write the same model
        cfg = tmp_path / "cfg.json"
        out = str(tmp_path / "cfg.bin")
        cfg.write_text(json.dumps({"lr": 0.01, "margin": 1, "epochs": 1}))
        assert main(["train", *dataset["args"], "--config", str(cfg),
                     "--out", out]) == 0
        flags = str(tmp_path / "flags.bin")
        assert main(["train", *dataset["args"], "--lr", "0.01", "--margin",
                     "1", "--epochs", "1", "--out", flags]) == 0
        with open(out, "rb") as a, open(flags, "rb") as b:
            assert a.read() == b.read()

    def test_missing_data_files_exit_two(self, tmp_path, capsys):
        rc = main(["train", "--train", str(tmp_path / "no.txt"),
                   "--valid", str(tmp_path / "no.txt"),
                   "--test", str(tmp_path / "no.txt"),
                   "--out", str(tmp_path / "x.bin")])
        assert rc == 2
        capsys.readouterr()

    def test_malformed_triples_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("only two\tfields\n")
        rc = main(["train", "--train", str(bad), "--valid", str(bad),
                   "--test", str(bad), "--out", str(tmp_path / "x.bin")])
        assert rc == 2
        assert "bad.txt:1" in capsys.readouterr().err

    @pytest.mark.parametrize("body", [b"a\tr\tb\na\tr\t\xff\n",
                                      b"a\tr\tb\n\tr\tc\n"],
                             ids=["not-utf8", "empty-field"])
    def test_unreadable_triples_exit_two(self, dataset, tmp_path, capsys,
                                         body):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(body)
        rc = main(["train", "--train", str(bad), *dataset["args"][2:],
                   "--out", str(tmp_path / "x.bin")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: " in err and "bad.txt:2" in err
        assert not os.path.exists(tmp_path / "x.bin")

    def test_predict_needs_exactly_one_anchor(self, dataset, tmp_path, capsys):
        model = str(tmp_path / "m.bin")
        run_train(dataset, model)
        rel = dataset["graph"].relations.labels[0]
        base = ["predict", *dataset["args"], "--model", model,
                "--relation", rel]
        assert main(base) == 1
        assert main(base + ["--head", "e000", "--tail", "e001"]) == 1
        capsys.readouterr()

    def test_unknown_label_suggests_neighbors(self, dataset, tmp_path, capsys):
        model = str(tmp_path / "m.bin")
        run_train(dataset, model)
        rel = dataset["graph"].relations.labels[0]
        rc = main(["predict", *dataset["args"], "--model", model,
                   "--relation", rel, "--head", "e00"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "e00" in err and "e000" in err

    @pytest.mark.parametrize("seed", range(40))
    def test_suggestions_are_the_stable_sort_head(self, seed):
        # a four-letter alphabet of 1-, 2- and 4-byte characters and short
        # labels tie many distances
        rng = np.random.default_rng(700 + seed)
        labels = list(dict.fromkeys(
            "".join("abΩ😀"[i] for i in rng.integers(0, 4, size))
            for size in rng.integers(0, 13, int(rng.integers(1, 60)))))
        for label in ("", "a", "abba", "bbbbbbbbb", "ab" * 6, "a\nb",
                      "Ω😀", "\udcff", "aΩb😀" * 3 + "ab"):
            ranked = sorted(labels,
                            key=lambda known: _edit_distance(label, known))
            assert cli._closest(label, labels) == ranked[:5]

    @pytest.mark.parametrize("label", ["", "e000\ne001", "e000\udcff"])
    def test_labels_no_file_can_hold_exit_two(self, dataset, tmp_path,
                                              capsys, label):
        model = str(tmp_path / "m.bin")
        run_train(dataset, model)
        rel = dataset["graph"].relations.labels[0]
        capsys.readouterr()
        rc = main(["predict", *dataset["args"], "--model", model,
                   "--relation", rel, "--head", label])
        assert rc == 2
        assert "(closest: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        "fit-domains", "evaluate", "evaluate --domains", "predict",
        "predict --domains"])
    def test_a_model_of_another_graph_exits_one(self, dataset, foreign,
                                                tmp_path, capsys, command):
        other, model, doms = foreign
        g = dataset["graph"]
        assert (other.n_entities, other.n_relations) \
            != (g.n_entities, g.n_relations)
        stage, *flags = command.split()
        outputs = [tmp_path / "out.bin", tmp_path / "out.csv"]
        argv = {"fit-domains": ["--out", str(outputs[0])],
                "evaluate": ["--report-out", str(outputs[0]),
                             "--csv-out", str(outputs[1])],
                "predict": ["--relation", g.relations.labels[0],
                            "--head", g.entities.labels[0]]}[stage]
        if flags:
            argv += ["--domains", doms]
        capsys.readouterr()
        assert main([stage, *dataset["args"], "--model", model, *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "model entity/relation counts do not match the graph" \
            in captured.err
        assert not any(path.exists() for path in outputs)

    def test_stale_domains_are_refused(self, dataset, tmp_path, capsys):
        m1, m2 = str(tmp_path / "m1.bin"), str(tmp_path / "m2.bin")
        doms = str(tmp_path / "d.bin")
        run_train(dataset, m1)
        run_train(dataset, m2, extra=["--seed", "99"])
        assert main(["fit-domains", *dataset["args"], "--model", m1,
                     "--fit-epochs", "2", "--out", doms]) == 0
        rc = main(["evaluate", *dataset["args"], "--model", m2,
                   "--domains", doms])
        assert rc == 1
        capsys.readouterr()

    def test_corrupt_model_file_exits_two(self, dataset, tmp_path, capsys):
        bad = tmp_path / "corrupt.bin"
        bad.write_bytes(b"DREKGE v1 transe junk\n")
        rc = main(["evaluate", *dataset["args"], "--model", str(bad)])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("artifact", ["model", "domains",
                                          "empty-domains"])
    def test_oversized_headers_exit_two(self, dataset, tmp_path, capsys,
                                        artifact):
        # sizes that overflow a C int (a dtype's shape) or wrap an int64
        # product must be refused by the length check, before any array
        # is shaped from them; a domain file with no fitted records
        # passes that check with any k, and its k must still be refused
        model = str(tmp_path / "m.bin")
        run_train(dataset, model)
        bad = tmp_path / "bad.bin"
        message = "expected"
        if artifact == "model":
            bad.write_bytes(b"DREKGE v1 transe 4294967296 1 4294967296 1 "
                            b"l1\n" + bytes(8) + (8).to_bytes(8, "little"))
            args = ["--model", str(bad)]
        else:
            if artifact == "domains":
                bad.write_bytes(b"DREDOM v1 100000 1 0 0123456789abcdef\n")
            else:
                bad.write_bytes(b"DREDOM v1 1000000 0 0 0123456789abcdef\n")
                message = "dimension 1000000 is too large"
            args = ["--model", model, "--domains", str(bad)]
        capsys.readouterr()
        rc = main(["evaluate", *dataset["args"], *args])
        assert rc == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert message in out.err

    def test_non_finite_model_exits_two_without_a_report(self, dataset,
                                                         tmp_path, capsys):
        model = str(tmp_path / "m.bin")
        run_train(dataset, model)
        m = load_model(model)
        m.entity_vecs[:] = np.nan
        save_model(m, model)
        report = tmp_path / "r.txt"
        rc = main(["evaluate", *dataset["args"], "--model", model,
                   "--report-out", str(report)])
        assert rc == 2
        assert not report.exists()
        assert "non-finite" in capsys.readouterr().err

    def test_non_finite_domains_exit_two_without_a_ranking(self, dataset,
                                                           tmp_path, capsys):
        model = str(tmp_path / "m.bin")
        doms = str(tmp_path / "d.bin")
        run_train(dataset, model)
        assert main(["fit-domains", *dataset["args"], "--model", model,
                     "--fit-epochs", "2", "--out", doms]) == 0
        dm = load_domains(doms)
        fitted = dm.fitted.copy()
        fitted["center"][0] = np.nan
        with open(doms, "rb") as fh:
            header = fh.readline()
        with open(doms, "wb") as fh:
            fh.write(header + fitted.tobytes() + dm.skipped.tobytes())
        capsys.readouterr()
        rc = main(["predict", *dataset["args"], "--model", model,
                   "--domains", doms,
                   "--relation", dataset["graph"].relations.labels[0],
                   "--head", dataset["graph"].entities.labels[0]])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err

    def rewrite_domains(self, dataset, tmp_path, edit):
        """Train a model, fit its domains, then overwrite the domain file
        with ``edit(domain_model)``; the fingerprint still matches."""
        model = str(tmp_path / "m.bin")
        doms = str(tmp_path / "d.bin")
        run_train(dataset, model)
        assert main(["fit-domains", *dataset["args"], "--model", model,
                     "--fit-epochs", "2", "--out", doms]) == 0
        save_domains(edit(load_domains(doms)), doms)
        return model, doms

    def run_with_domains(self, dataset, command, model, doms):
        g = dataset["graph"]
        extra = (["--relation", g.relations.labels[0],
                  "--head", g.entities.labels[0]]
                 if command == "predict" else [])
        return main([command, *dataset["args"], "--model", model,
                     "--domains", doms, *extra])

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_domains_of_another_size_exit_two(self, dataset, tmp_path,
                                              capsys, command):
        def shrink(dm):
            small = domain_model(3, dm.model_fingerprint,
                                 {key: Ellipsoid(e.center[:3],
                                                 e.factor[:3, :3])
                                  for key, e in dm.ellipsoids.items()})
            return replace(small, skipped=dm.skipped)

        model, doms = self.rewrite_domains(dataset, tmp_path, shrink)
        capsys.readouterr()
        assert self.run_with_domains(dataset, command, model, doms) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "dimension 3" in captured.err

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    @pytest.mark.parametrize("where", ["fitted", "skipped"])
    def test_domains_naming_unknown_relations_exit_two(self, dataset,
                                                       tmp_path, capsys,
                                                       command, where):
        n_relations = dataset["graph"].n_relations

        def add_foreign(dm):
            # the foreign slot sorts last in its records
            if where == "fitted":
                foreign = dm.fitted[:1].copy()
                foreign["relation"], foreign["flag"] = 99, 0
                return replace(dm, fitted=np.concatenate([dm.fitted,
                                                          foreign]))
            foreign = np.array([(n_relations, 1)], dtype=dm.skipped.dtype)
            return replace(dm, skipped=np.concatenate([dm.skipped,
                                                       foreign]))

        model, doms = self.rewrite_domains(dataset, tmp_path, add_foreign)
        capsys.readouterr()
        assert self.run_with_domains(dataset, command, model, doms) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "relation id outside" in captured.err

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    @pytest.mark.parametrize("where", ["fitted", "skipped"])
    def test_a_domain_listed_twice_exits_two(self, dataset, tmp_path, capsys,
                                             command, where):
        def skip_last(dm):
            last = dm.fitted[-1:][["relation", "flag"]].astype(
                dm.skipped.dtype)
            return replace(dm, fitted=dm.fitted[:-1],
                           skipped=np.sort(np.concatenate([dm.skipped,
                                                           last])))

        model, doms = self.rewrite_domains(dataset, tmp_path, skip_last)
        dm = load_domains(doms)
        assert len(dm.ellipsoids) >= 2 and len(dm.skipped)
        header, body = open(doms, "rb").read().split(b"\n", 1)
        k = dm.rel_dim
        rec = 16 + 8 * (k + k * (k + 1) // 2)
        # the second fitted record, or the first skipped one, now names
        # the first fitted slot
        at = rec if where == "fitted" else len(dm.ellipsoids) * rec
        with open(doms, "wb") as fh:
            fh.write(header + b"\n" + body[:at] + body[:16] + body[at + 16:])
        capsys.readouterr()
        assert self.run_with_domains(dataset, command, model, doms) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "listed twice" in captured.err

    def test_overflowing_scores_exit_three_without_a_report(self, dataset,
                                                            tmp_path, capsys):
        model = str(tmp_path / "m.bin")
        run_train(dataset, model, extra=["--dissim", "l2"])
        m = load_model(model)
        m.entity_vecs *= 1e200      # finite, so the file loads
        save_model(m, model)
        report = tmp_path / "r.txt"
        rc = main(["evaluate", *dataset["args"], "--model", model,
                   "--report-out", str(report)])
        assert rc == 3
        assert not report.exists()
        err = capsys.readouterr().err
        assert "non-finite" in err and "RuntimeWarning" not in err

    def test_overflowing_scores_exit_three_without_a_ranking(self, dataset,
                                                             tmp_path,
                                                             capsys):
        model = str(tmp_path / "m.bin")
        run_train(dataset, model, extra=["--dissim", "l2"])
        m = load_model(model)
        m.entity_vecs *= 1e200
        save_model(m, model)
        capsys.readouterr()
        rc = main(["predict", *dataset["args"], "--model", model,
                   "--relation", dataset["graph"].relations.labels[0],
                   "--head", dataset["graph"].entities.labels[0]])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err
        assert "RuntimeWarning" not in captured.err

    def test_failed_output_leaves_no_partial_files(self, dataset, tmp_path,
                                                   capsys):
        out = tmp_path / "missing_dir" / "model.bin"
        rc = run_train(dataset, str(out))
        assert rc == 2
        assert not out.exists()
        assert list(tmp_path.iterdir()) == [tmp_path / "data"]
        capsys.readouterr()

    def test_a_write_failing_after_its_temp_file_leaves_no_files(
            self, dataset, tmp_path, capsys, monkeypatch):
        def write_then_fail(model, path):
            with open(path, "wb") as fh:
                fh.write(b"DREKGE")
            raise OSError("no space left")

        monkeypatch.setattr(models, "save_model", write_then_fail)
        assert run_train(dataset, str(tmp_path / "model.bin")) == 2
        assert "error: no space left" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "data"]

    @pytest.mark.parametrize("flag,what", [("--margin", "loss"),
                                           ("--lr", "entity_vecs")])
    def test_diverged_training_exits_three_without_a_model(
            self, walkthrough, tmp_path, capsys, flag, what):
        out = tmp_path / "never.bin"
        assert main(["train", *walkthrough, flag, "1e308", "--epochs", "1",
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"error: training diverged at epoch 0: non-finite {what}" \
            in err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert not out.exists()

    def test_staged_init_must_be_a_transe_model(self, dataset, tmp_path,
                                                capsys):
        base, transr = str(tmp_path / "base.bin"), str(tmp_path / "r.bin")
        out = tmp_path / "never.bin"
        assert run_train(dataset, base) == 0
        staged = ["--dim", "6", "--epochs", "1"]
        assert main(["train", *dataset["args"], "--variant", "transr",
                     "--init-model", base, *staged, "--out", transr]) == 0
        capsys.readouterr()
        assert main(["train", *dataset["args"], "--variant", "stranse",
                     "--init-model", transr, *staged,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: staged init must be a transe model, got 'transr'" \
            in err
        assert "Traceback" not in err
        assert not out.exists()
        # transe resumes through the same check
        assert main(["train", *dataset["args"], "--init-model", transr,
                     *staged, "--out", str(out)]) == 1
        assert "error: staged init must be a transe model, got 'transr'" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_transe_resumes_from_a_transe_model(self, dataset, tmp_path):
        base, resumed = tmp_path / "base.bin", tmp_path / "resumed.bin"
        fresh = tmp_path / "fresh.bin"
        assert run_train(dataset, str(base)) == 0
        assert run_train(dataset, str(resumed),
                         extra=["--init-model", str(base)]) == 0
        assert run_train(dataset, str(fresh)) == 0
        # the same seed and flags from other starting parameters
        assert resumed.read_bytes() != fresh.read_bytes()
        assert load_model(str(resumed)).variant == "transe"

    def test_evaluating_an_empty_split_exits_one(self, dataset, tmp_path,
                                                 capsys):
        model = str(tmp_path / "m.bin")
        run_train(dataset, model)
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        report = tmp_path / "r.txt"
        capsys.readouterr()
        assert main(["evaluate", *dataset["args"][:4], "--test", str(empty),
                     "--model", model, "--report-out", str(report)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "error: test split is empty" in out.err
        assert "Traceback" not in out.err
        assert not report.exists()

    @pytest.mark.parametrize("content,message", [
        (None, "cannot read config file"),
        ("{", "config file is not valid JSON"),
        ("[1]", "config file must hold a JSON object")],
        ids=["missing", "not-json", "not-an-object"])
    def test_an_unusable_config_file_exits_one(self, dataset, tmp_path,
                                               capsys, content, message):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_text(content)
        out = tmp_path / "x.bin"
        assert main(["train", *dataset["args"], "--config", str(cfg),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_training_logs_every_validation(self, dataset, tmp_path,
                                            caplog):
        caplog.set_level(logging.INFO, logger="drekge")
        out = tmp_path / "m.bin"
        assert run_train(dataset, str(out), extra=["--eval-every", "1"]) == 0
        assert caplog.text.count("validation filtered hits@10") == 3
        assert out.exists()

    @pytest.fixture()
    def written(self, dataset, tmp_path):
        """A model with dim 12, so every header holds a two-digit count,
        and its domain file."""
        model, doms = tmp_path / "m.bin", tmp_path / "d.bin"
        assert run_train(dataset, str(model), extra=["--dim", "12"]) == 0
        assert main(["fit-domains", *dataset["args"], "--model", str(model),
                     "--fit-epochs", "2", "--out", str(doms)]) == 0
        return model, doms

    def evaluate_refused(self, dataset, tmp_path, capsys, model, doms):
        """Exit code and stderr of ``evaluate`` on the given files, which
        must print nothing, write no report and raise no traceback."""
        report = tmp_path / "r.txt"
        capsys.readouterr()
        rc = main(["evaluate", *dataset["args"], "--model", str(model),
                   "--domains", str(doms), "--report-out", str(report)])
        out = capsys.readouterr()
        assert out.out == ""
        assert "Traceback" not in out.err
        assert not report.exists()
        return rc, out.err

    @pytest.mark.parametrize("form", ["+12", "012", "1_2", "12\t"],
                             ids=["sign", "leading-zero", "underscore",
                                  "tab"])
    @pytest.mark.parametrize("artifact", ["model", "domains"])
    def test_a_header_count_in_another_form_exits_two(
            self, dataset, tmp_path, capsys, written, artifact, form):
        # int() reads each of these forms as 12; no writer prints them
        model, doms = written
        path, at = (model, 5) if artifact == "model" else (doms, 2)
        header, body = path.read_bytes().split(b"\n", 1)
        fields = header.split(b" ")
        assert fields[at] == b"12"
        fields[at] = form.encode()
        path.write_bytes(b" ".join(fields) + b"\n" + body)
        rc, err = self.evaluate_refused(dataset, tmp_path, capsys, model,
                                        doms)
        assert rc == 2
        assert f"error: {path}: bad header counts" in err

    @staticmethod
    def reverse_fitted(blob):
        header, body = blob.split(b"\n", 1)
        fields = header.split(b" ")
        k, n_fitted = int(fields[2]), int(fields[3])
        assert n_fitted >= 2
        rec = 16 + 8 * (k + k * (k + 1) // 2)
        records = [body[i:i + rec] for i in range(0, n_fitted * rec, rec)]
        return (header + b"\n" + b"".join(records[::-1])
                + body[n_fitted * rec:])

    @staticmethod
    def upper_fingerprint(blob):
        header, body = blob.split(b"\n", 1)
        return header[:-16] + header[-16:].upper() + b"\n" + body

    @staticmethod
    def slot_flag_two(blob):
        header, body = blob.split(b"\n", 1)
        return header + b"\n" + body[:8] + (2).to_bytes(8, "little") \
            + body[16:]

    @staticmethod
    def zero_entities(blob):
        fields = blob.split(b" ", 4)
        fields[3] = b"0"
        return b" ".join(fields)

    @staticmethod
    def transe_of_two_sizes(blob):
        # 16 entities, 2 relations, dim 2 and rel_dim 4: the payload
        # length fits, but transe has no projection between the two
        payload = 8 * (16 * 2 + 2 * 4)
        return (b"DREKGE v1 transe 16 2 2 4 l1\n" + bytes(payload)
                + payload.to_bytes(8, "little"))

    @pytest.mark.parametrize("artifact,edit,message", [
        ("model", lambda blob: b"DREKGE v1 transe", "missing header line"),
        ("model", lambda blob: blob.replace(b" l1\n", b" l3\n", 1),
         "unknown dissimilarity 'l3'"),
        ("model", zero_entities, "bad header counts"),
        ("model", transe_of_two_sizes, "rel_dim 4 must equal its dim 2"),
        ("domains", lambda blob: b"DREDOM v1 12 0 0 0123456789abcdef",
         "missing header line"),
        ("domains", lambda blob: b"DREDOM v1 0 0 0 0123456789abcdef\n",
         "bad header counts"),
        ("domains", slot_flag_two, "bad domain slot: relation 0, side "
                                     "flag 2"),
        ("domains", upper_fingerprint, "16 hex digits, in lower case"),
        ("domains", reverse_fitted, "not in ascending slot order")],
        ids=["model-no-header-line", "model-dissimilarity",
             "model-zero-count", "model-transe-rel-dim",
             "domains-no-header-line", "domains-zero-k", "domains-slot",
             "domains-upper-case-fingerprint", "domains-reversed"])
    def test_an_artifact_not_in_its_writers_form_exits_two(
            self, dataset, tmp_path, capsys, written, artifact, edit,
            message):
        model, doms = written
        path = model if artifact == "model" else doms
        path.write_bytes(edit(path.read_bytes()))
        rc, err = self.evaluate_refused(dataset, tmp_path, capsys, model,
                                        doms)
        assert rc == 2
        assert err.startswith(f"error: {path}: ") and message in err


class _IndexBuilt(Exception):
    pass


class TestPresets:
    def test_every_dataset_and_variant_choice_has_a_preset(self):
        train = build_parser().parse_args(["train", "--out", "x"]).parser
        choices = {action.dest: action.choices for action in train._actions}
        assert set(PRESETS) == set(itertools.product(choices["dataset"],
                                                     choices["variant"]))


class TestFilterIndexIsLazy:
    """Only ranking reads the filter index, so only ``evaluate`` and
    validation during ``train`` build it."""

    @pytest.fixture()
    def artifacts(self, dataset, tmp_path):
        model = str(tmp_path / "m.bin")
        doms = str(tmp_path / "d.bin")
        assert run_train(dataset, model) == 0
        assert main(["fit-domains", *dataset["args"], "--model", model,
                     "--fit-epochs", "2", "--out", doms]) == 0
        return model, doms

    @pytest.fixture()
    def no_index(self, artifacts, monkeypatch):
        """The artifacts, made before any index build is refused."""
        def refuse(self, *args):
            raise _IndexBuilt
        monkeypatch.setattr(data._FilterIndex, "__init__", refuse)
        return artifacts

    def test_stages_that_never_rank_never_build_it(self, dataset, tmp_path,
                                                   no_index):
        model, doms = no_index
        g = dataset["graph"]
        assert main(["fit-domains", *dataset["args"], "--model", model,
                     "--fit-epochs", "2",
                     "--out", str(tmp_path / "d2.bin")]) == 0
        for extra in ([], ["--domains", doms]):
            assert main(["predict", *dataset["args"], "--model", model,
                         *extra, "--relation", g.relations.labels[0],
                         "--head", g.entities.labels[0]]) == 0
        assert run_train(dataset, str(tmp_path / "t.bin"),
                         ["--eval-every", "0"]) == 0

    def test_ranking_stages_build_it(self, dataset, tmp_path, no_index):
        model, doms = no_index
        with pytest.raises(_IndexBuilt):
            main(["evaluate", *dataset["args"], "--model", model,
                  "--domains", doms])
        with pytest.raises(_IndexBuilt):
            run_train(dataset, str(tmp_path / "t.bin"),
                      ["--eval-every", "1"])


# the variables drekge sets, and every other one from which OpenBLAS
# takes its thread count
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS")
NUMPY_DEFAULT = (*BLAS_THREADS, "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _child_env(**preset):
    """This environment without any BLAS thread variable, plus ``preset``,
    with drekge's source on the path."""
    env = {k: v for k, v in os.environ.items() if k not in NUMPY_DEFAULT}
    src = os.path.dirname(os.path.dirname(os.path.abspath(drekge.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src,
                                                     env.get("PYTHONPATH")]))
    env.update(preset)
    return env


class TestBlasThreads:
    """Every stage runs its BLAS on one thread, set when drekge loads."""

    def _read_after_import(self, **preset):
        code = ("import json, os, drekge; print(json.dumps("
                f"{{n: os.environ.get(n) for n in {BLAS_THREADS!r}}}))")
        done = subprocess.run([sys.executable, "-c", code],
                              env=_child_env(**preset), capture_output=True,
                              text=True, check=True)
        return json.loads(done.stdout)

    def test_import_sets_one_thread(self):
        assert self._read_after_import() == dict.fromkeys(BLAS_THREADS, "1")

    def test_a_preset_value_wins(self):
        assert self._read_after_import(OPENBLAS_NUM_THREADS="3") == {
            **dict.fromkeys(BLAS_THREADS, "1"), "OPENBLAS_NUM_THREADS": "3"}

    def test_projected_bits_do_not_depend_on_the_core_count(self, tmp_path):
        """A transr model trained by ``python -m drekge.cli`` with numpy's
        own BLAS thread count is the one trained with one thread. A
        1,200-row relation group makes ``_relation_grads``' matrix
        gradient a product that OpenBLAS splits over its threads, and
        the split changes its rounding. On a 1-CPU host OpenBLAS runs
        one thread in both runs, so there the test passes with or
        without that setting."""
        rng = np.random.default_rng(0)
        rows = [(f"e{h}", "r0", f"e{t}")
                for h, t in rng.integers(0, 300, size=(1200, 2))]
        rows += [(f"e{i}", "r1", f"e{(i + 1) % 300}") for i in range(300)]
        for name, part in (("train", rows), ("valid", rows[:5]),
                           ("test", rows[5:10])):
            (tmp_path / f"{name}.txt").write_text(
                "".join("\t".join(row) + "\n" for row in part))
        files = [f"--{name}={tmp_path / name}.txt"
                 for name in ("train", "valid", "test")]
        init = str(tmp_path / "transe.bin")
        assert main(["train", *files, "--epochs", "1", "--out", init]) == 0
        outs = {}
        for name, preset in (("default", {}),
                             ("one", {"OPENBLAS_NUM_THREADS": "1"})):
            outs[name] = tmp_path / f"transr-{name}.bin"
            subprocess.run(
                [sys.executable, "-m", "drekge.cli", "train", *files,
                 "--variant", "transr", "--init-model", init,
                 "--batch", "1500", "--epochs", "1", "--eval-every", "0",
                 "--out", str(outs[name])],
                env=_child_env(**preset), capture_output=True, check=True)
        assert outs["default"].read_bytes() == outs["one"].read_bytes()
