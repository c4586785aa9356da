#!/usr/bin/env python3
"""Convert a citation-network .npz archive to a dataset directory.

The archive is expected to hold CSR blocks named adj_data / adj_indices /
adj_indptr / adj_shape and attr_data / attr_indices / attr_indptr /
attr_shape plus a labels vector, which is the layout most published
citation-network dumps use. The output directory follows the meta.json /
edges.tsv / features.tsv / labels.tsv convention the loader expects. Every
stored nonzero of the adjacency, whatever its weight or sign, becomes an
undirected edge; arcs stored in both directions merge and self-loops are
dropped. Labels are passed on as stored, so ``save_dataset`` decides which
it accepts. An archive that cannot be read or converted prints
``error: <message>`` on stderr and exits 3, the CLI's dataset-error code,
without writing the output directory.

Usage:
    python scripts/convert_npz_dataset.py cora.npz data/cora
"""
from __future__ import annotations

import argparse
import sys
import zipfile
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from pottscluster import from_edge_list, save_dataset
from pottscluster.dataset import read_json_object


def load_csr(archive, prefix: str) -> sp.csr_matrix:
    keys = [f"{prefix}_{part}" for part in ("data", "indices", "indptr", "shape")]
    missing = [k for k in keys if k not in archive]
    if missing:
        raise ValueError(f"archive lacks CSR arrays {missing}")
    data, indices, indptr, shape = (archive[k] for k in keys)
    return sp.csr_matrix((data, indices, indptr), shape=tuple(shape))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("archive", help=".npz file with adj_*/attr_*/labels arrays")
    parser.add_argument("out", help="dataset directory to create")
    args = parser.parse_args(argv)
    try:
        with np.load(args.archive, allow_pickle=False) as archive:
            adj = load_csr(archive, "adj")
            attr = load_csr(archive, "attr")
            if "labels" not in archive:
                raise ValueError("archive lacks a labels array")
            labels = archive["labels"]
        if adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {adj.shape}")
        # every stored nonzero arc is an edge; from_edge_list merges orientations
        g = from_edge_list(np.column_stack(adj.nonzero()), adj.shape[0])
        save_dataset(args.out, g, attr, labels)
    except (OSError, TypeError, ValueError, zipfile.BadZipFile) as exc:  # a malformed archive
        print(f"error: {exc}", file=sys.stderr)
        return 3
    meta = read_json_object(Path(args.out) / "meta.json", "meta.json")
    print(f"wrote {args.out}: n={meta['n']} m={g.m} features={meta['num_features']} classes={meta['num_classes']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
