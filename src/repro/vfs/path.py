"""Path normalization and manipulation for the simulated VFS.

All paths in the reproduction are absolute, ``/``-separated and normalized
(``//``, ``.`` and ``..`` resolved).  Keeping one canonical form makes the
mount-table lookups and the Mux union namespace straightforward.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import InvalidArgument

SEP = "/"
ROOT = "/"


def is_canonical(path: str) -> bool:
    """True if ``path`` is already in canonical form.

    Canonical paths are absolute, have no empty / ``.`` / ``..``
    components and no trailing separator (except the root itself).  The
    check is a handful of substring scans, far cheaper than a split +
    rejoin, so hot paths that mostly see already-normalized strings can
    skip re-normalizing (paths are re-normalized 2-3x per operation as
    they cross the VFS, Mux and native-FS layers).
    """
    if path == ROOT:
        return True
    if not path or path[0] != SEP or path[-1] == SEP:
        return False
    if "//" in path or "/./" in path or "/../" in path:
        return False
    if path.endswith("/.") or path.endswith("/.."):
        return False
    return True


def normalize(path: str) -> str:
    """Return the canonical absolute form of ``path``.

    Already-canonical strings are returned unchanged (identity, no
    allocation).  Raises :class:`InvalidArgument` for relative paths or
    ``..`` escaping the root.
    """
    if is_canonical(path):
        return path
    if not path or not path.startswith(SEP):
        raise InvalidArgument(f"path must be absolute: {path!r}")
    parts: List[str] = []
    for piece in path.split(SEP):
        if piece in ("", "."):
            continue
        if piece == "..":
            if not parts:
                raise InvalidArgument(f"path escapes root: {path!r}")
            parts.pop()
        else:
            parts.append(piece)
    return ROOT + SEP.join(parts)


def split(path: str) -> Tuple[str, str]:
    """Split a normalized path into (parent, name).  Root has no name."""
    path = normalize(path)
    if path == ROOT:
        return ROOT, ""
    parent, _, name = path.rpartition(SEP)
    return (parent or ROOT), name


def join(base: str, *names: str) -> str:
    """Join path components onto ``base`` and normalize."""
    pieces = [base]
    pieces.extend(names)
    return normalize(SEP.join(pieces))


def dirname(path: str) -> str:
    return split(path)[0]


def components(path: str) -> List[str]:
    """The name components of a normalized path (root -> [])."""
    path = normalize(path)
    if path == ROOT:
        return []
    return path[1:].split(SEP)


def is_under(path: str, prefix: str) -> bool:
    """True if ``path`` equals or lies beneath ``prefix``."""
    path = normalize(path)
    prefix = normalize(prefix)
    if prefix == ROOT:
        return True
    return path == prefix or path.startswith(prefix + SEP)


def relative_to(path: str, prefix: str) -> str:
    """``path`` rewritten relative to ``prefix``, as an absolute path.

    ``relative_to('/mnt/pm/a/b', '/mnt/pm') == '/a/b'``
    """
    path = normalize(path)
    prefix = normalize(prefix)
    if not is_under(path, prefix):
        raise InvalidArgument(f"{path!r} is not under {prefix!r}")
    if prefix == ROOT:
        return path
    rest = path[len(prefix) :]
    return rest or ROOT


def ancestors(path: str) -> List[str]:
    """All proper ancestors of ``path``, root first.

    ``ancestors('/a/b/c') == ['/', '/a', '/a/b']``
    """
    comps = components(path)
    result = [ROOT]
    for i in range(len(comps) - 1):
        result.append(ROOT + SEP.join(comps[: i + 1]))
    return result if comps else []
