"""Unit tests for path utilities."""

import pytest

from repro.errors import InvalidArgument
from repro.vfs import path as vpath


class TestNormalize:
    def test_plain(self):
        assert vpath.normalize("/a/b") == "/a/b"

    def test_root(self):
        assert vpath.normalize("/") == "/"

    def test_double_slash(self):
        assert vpath.normalize("//a///b") == "/a/b"

    def test_dot(self):
        assert vpath.normalize("/a/./b") == "/a/b"

    def test_dotdot(self):
        assert vpath.normalize("/a/b/../c") == "/a/c"

    def test_trailing_slash(self):
        assert vpath.normalize("/a/b/") == "/a/b"

    def test_relative_rejected(self):
        with pytest.raises(InvalidArgument):
            vpath.normalize("a/b")

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgument):
            vpath.normalize("")

    def test_escape_root_rejected(self):
        with pytest.raises(InvalidArgument):
            vpath.normalize("/../x")


class TestSplitJoin:
    def test_split(self):
        assert vpath.split("/a/b/c") == ("/a/b", "c")

    def test_split_top_level(self):
        assert vpath.split("/a") == ("/", "a")

    def test_split_root(self):
        assert vpath.split("/") == ("/", "")

    def test_join(self):
        assert vpath.join("/a", "b", "c") == "/a/b/c"

    def test_join_normalizes(self):
        assert vpath.join("/a/", "/b/") == "/a/b"

    def test_basename_dirname(self):
        assert vpath.split("/x/y") == ("/x", "y")
        assert vpath.dirname("/x/y") == "/x"


class TestRelations:
    def test_components(self):
        assert vpath.components("/a/b") == ["a", "b"]
        assert vpath.components("/") == []

    def test_is_under(self):
        assert vpath.is_under("/a/b", "/a")
        assert vpath.is_under("/a", "/a")
        assert not vpath.is_under("/ab", "/a")
        assert vpath.is_under("/anything", "/")

    def test_relative_to(self):
        assert vpath.relative_to("/mnt/pm/a/b", "/mnt/pm") == "/a/b"
        assert vpath.relative_to("/mnt/pm", "/mnt/pm") == "/"
        assert vpath.relative_to("/a/b", "/") == "/a/b"

    def test_relative_to_not_under(self):
        with pytest.raises(InvalidArgument):
            vpath.relative_to("/x", "/y")

    def test_ancestors(self):
        assert vpath.ancestors("/a/b/c") == ["/", "/a", "/a/b"]
        assert vpath.ancestors("/a") == ["/"]
        assert vpath.ancestors("/") == []
