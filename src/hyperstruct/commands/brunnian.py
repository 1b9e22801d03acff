"""brunnian: per-level counts and the Brunnian nesting order."""
from collections import Counter

from . import _need, _print, _read_document, _tower_summary


def run(args) -> int:
    from .. import installers

    h = _need(_read_document(args.input), "hyperstructure")
    lines = _tower_summary(h)
    brunnians = installers.brunnian_bond_ids(h)
    counts = Counter(e.level for e in brunnians)
    lines += [f"level-{i} brunnian bonds: {counts[i]}" for i in range(1, h.order + 1)]
    lines.append(f"order: {installers.brunnian_order(h, brunnians)}")
    _print(lines)
    return 0
