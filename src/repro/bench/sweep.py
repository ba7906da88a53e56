"""Repetitions per message size, shared by the figure cells."""


def reps_for(size: int) -> int:
    """Enough repetitions for stable numbers, fewer for huge messages."""
    if size >= 256 * 1024:
        return 3
    if size >= 32 * 1024:
        return 5
    return 10
