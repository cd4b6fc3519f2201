import qkattn


def test_every_export_resolves():
    for name in qkattn.__all__:
        getattr(qkattn, name)  # AttributeError names a dangling export
