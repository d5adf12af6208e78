"""Seeded single-byte mutations of both artifact kinds.

A file that a loader accepts must be one its writer could have written,
so it saves back to its own bytes; every other file is refused with a
``FormatError``. Whatever a mutated file then does to ``evaluate`` must
end in a package error, never in a bare numpy or Python exception.
"""

import numpy as np
import pytest

from drekge.domains import fit_all_domains, load_domains, save_domains
from drekge.ellipsoid import FitConfig
from drekge.errors import DrekgeError, FormatError
from drekge.evaluation import evaluate
from drekge.models import TrainConfig, load_model, save_model, train

from generators import random_graph

# per file: truncations, single-bit flips anywhere, header-byte
# replacements
N_TRUNCATIONS, N_FLIPS, N_HEADER = 25, 120, 80
# replacement bytes near the writer's alphabet, so that the near misses
# (a sign, a leading zero, upper-case hex, a tab) are drawn often
HEADER_BYTES = b"0123456789abcdefABCDEF+-_ \t\n\x00\xff"


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """The graph and, per variant, the files of a trained model and its
    domains, with the loaded domain model."""
    graph = random_graph(np.random.default_rng(0))
    base = train(graph, TrainConfig(dim=4, epochs=2, seed=0))
    projected = train(graph, TrainConfig(variant="transr", dim=4, epochs=1,
                                         seed=0), init=base)
    out = tmp_path_factory.mktemp("artifacts")
    files = {}
    for model in (base, projected):
        dm = fit_all_domains(graph, model, FitConfig(epochs=2, seed=0))
        model_path = out / f"{model.variant}.bin"
        domain_path = out / f"{model.variant}-domains.bin"
        save_model(model, str(model_path))
        save_domains(dm, str(domain_path))
        files[model.variant] = (model_path.read_bytes(), model, dm,
                                domain_path.read_bytes())
    return graph, files


def mutations(blob: bytes, rng: np.random.Generator):
    """(kind, mutated bytes) for one file."""
    for size in rng.integers(0, len(blob), size=N_TRUNCATIONS).tolist():
        yield "truncation", blob[:size]
    for bit in rng.integers(0, 8 * len(blob), size=N_FLIPS).tolist():
        mutated = bytearray(blob)
        mutated[bit // 8] ^= 1 << (bit % 8)
        yield "flip", bytes(mutated)
    header = blob.index(b"\n") + 1
    for at, byte in zip(rng.integers(0, header, size=N_HEADER).tolist(),
                        rng.choice(list(HEADER_BYTES), size=N_HEADER)):
        mutated = bytearray(blob)
        mutated[at] = byte
        if mutated != blob:
            yield "header", bytes(mutated)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("variant", ["transe", "transr"])
@pytest.mark.parametrize("kind", ["model", "domains"])
def test_mutated_artifacts_load_as_written_or_not_at_all(artifacts,
                                                         tmp_path, variant,
                                                         kind):
    graph, files = artifacts
    model_blob, model, dm, domain_blob = files[variant]
    load, save = (load_model, save_model) if kind == "model" \
        else (load_domains, save_domains)
    path, again = str(tmp_path / "mutated.bin"), str(tmp_path / "again.bin")
    rng = np.random.default_rng([kind == "model", variant == "transe"])
    accepted = 0
    for what, blob in mutations(model_blob if kind == "model"
                                else domain_blob, rng):
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            loaded = load(path)
        except FormatError:
            continue
        assert what != "truncation", "a truncated file loaded"
        accepted += 1
        save(loaded, again)
        with open(again, "rb") as fh:
            assert fh.read() == blob, f"a {what} loaded to other bytes"
        # a changed model no longer matches the domains fitted on the
        # original, so it is ranked on its own
        try:
            if kind == "model":
                evaluate(graph, loaded)
            else:
                evaluate(graph, model, loaded)
        except DrekgeError:
            pass
    assert accepted > 0
