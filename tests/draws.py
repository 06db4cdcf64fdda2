"""Random diagrams for the property tests."""

from particat.partition import BLACK, WHITE, Partition, _draw_labels


def random_partition(rng, k: int, l: int, colored: bool = False) -> Partition:
    """A random diagram in P(k, l); block count follows a CRP-style draw
    (``_draw_labels``), which opens the blocks in order of their smallest
    point."""
    labels = _draw_labels(rng, k + l)
    colors = None
    if colored:
        colors = tuple(rng.choice((WHITE, BLACK)) for _ in range(k + l))
    return Partition(k, l, labels, colors)
