"""The package's exported names."""
import instasim


def test_all_has_no_duplicates_and_every_name_resolves():
    assert len(instasim.__all__) == len(set(instasim.__all__))
    assert [name for name in instasim.__all__ if not hasattr(instasim, name)] == []
    assert {"cosine_losses", "patch_losses"} <= set(instasim.__all__)
    assert {"cross_terms", "self_terms", "patch_sets"} <= set(instasim.__all__)
