"""Scale probe for the tokenizer stages: time and peak memory against corpus size.

Writes `perfbench/gen.py` corpora of about the given sizes from one seed, in
one shape (1-15 sentences a document, a 3,000-word lexicon), and for each
measures `load_corpus` and `train_and_encode`. A stage's seconds come from a
plain call; its peak comes from a second call under `tracemalloc`, which
slows Python allocation and so is not timed. One line a stage:

    size_mb=0.41 stage=train_and_encode seconds=0.47 peak_mb=21.3 peak_bytes_per_byte=52.0

`peak_bytes_per_byte` divides the peak by the stage's input: the corpus file
for `load_corpus`, the UTF-8 bytes of the document texts for
`train_and_encode`.

    python scripts/scale_bpe.py                  # about 0.4, 1.5, 6 and 24 MB
    python scripts/scale_bpe.py --sizes 0.4      # the smallest only
    python scripts/scale_bpe.py --sizes 1.5 6 --vocab-size 8192   # the CLI's default size
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]

import gen  # noqa: E402
from qtmine.corpus import load_corpus  # noqa: E402
from qtmine.tokenizer import train_and_encode  # noqa: E402

# Mean UTF-8 bytes of one document's text in this shape (1-15 sentences).
DOC_BYTES = 474
SEED = 7


def measure(fn, *args):
    """`fn(*args)`, its seconds, and the tracemalloc peak of a second call."""
    started = perf_counter()
    out = fn(*args)
    seconds = perf_counter() - started
    tracemalloc.start()
    fn(*args)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return out, seconds, peak


def probe(root: Path, size_mb: float, vocab_size: int) -> None:
    n_docs = max(1, round(size_mb * 1e6 / DOC_BYTES))
    shape = gen.Size(n_docs=n_docs, max_sentences=15, n_drugs=30, n_effective=10,
                     n_negative=10, n_lexicon=3000, n_analogies=0, n_passages=0,
                     passage_sentences=0)
    gen.write_inputs(root, SEED, shape, {"vocab_size": vocab_size})
    path = root / "corpus.jsonl"
    docs, load_s, load_peak = measure(load_corpus, path)
    texts = [doc.text() for doc in docs.documents]
    n_bytes = sum(len(text.encode("utf-8")) for text in texts)
    _, train_s, train_peak = measure(train_and_encode, texts, vocab_size)
    for stage, seconds, peak, denominator in (
            ("load_corpus", load_s, load_peak, path.stat().st_size),
            ("train_and_encode", train_s, train_peak, n_bytes)):
        print(f"size_mb={n_bytes / 1e6:.2f} stage={stage} seconds={seconds:.3f} "
              f"peak_mb={peak / 1e6:.1f} peak_bytes_per_byte={peak / denominator:.1f}", flush=True)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", type=float, nargs="+", default=[0.4, 1.5, 6.0, 24.0],
                    help="corpus sizes in MB (default: 0.4 1.5 6 24)")
    ap.add_argument("--vocab-size", type=int, default=4096,
                    help="the vocabulary size train_and_encode is given (default: 4096)")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        for size_mb in args.sizes:
            probe(Path(tmp) / f"{size_mb:g}mb", size_mb, args.vocab_size)


if __name__ == "__main__":
    main()
