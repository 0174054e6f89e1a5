"""Readers of the files `xlwalk gen-graph` and `xlwalk gen-data` write.

No subcommand reads these files back; the tests do, to check what was
written. Each reader inverts its writer: `topology.graph_to_json` and
`datahub.save_dataset`.
"""
import json
from pathlib import Path

import numpy as np

from xlwalk.datahub import Dataset
from xlwalk.topology import Graph, _build_graph


def graph_from_json(text: str) -> Graph:
    doc = json.loads(text)
    n = doc["n"]
    edge_set = {(min(i, j), max(i, j)) for i, j in doc["edges"]}
    positions = None
    if "positions" in doc:
        positions = tuple((float(x), float(y)) for x, y in doc["positions"])
    clique_of = tuple(doc["cliques"]) if "cliques" in doc else None
    return _build_graph(n, edge_set, positions=positions, clique_of=clique_of)


def load_dataset(path: str | Path) -> Dataset:
    path = Path(path)
    doc = json.loads(path.read_text())
    if "features_file" in doc:
        raw = np.fromfile(path.parent / doc["features_file"], dtype=doc["features_dtype"])
        features = raw.reshape(doc["features_shape"]).astype(np.float64)
    else:
        features = np.array(doc["features"], dtype=np.float64)
    return Dataset(
        features=features,
        labels=np.array(doc["labels"], dtype=np.int64),
        train_indices=np.array(doc["train_indices"], dtype=np.int64),
        val_indices=np.array(doc["val_indices"], dtype=np.int64),
        n_classes=doc["n_classes"],
    )
