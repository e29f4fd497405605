import pyarrow as pa
import pytest

from action_pdf_accessibility_paddle_docker_ray import schemas
from action_pdf_accessibility_paddle_docker_ray.schemas import check_schema
from action_pdf_accessibility_paddle_docker_ray.stages.protocol import Stage, compile_stages


def test_check_schema_accepts_binary_variants():
    t = pa.table({"url": pa.array([], pa.string()),
                  "warc_ts": pa.array([], pa.timestamp("us")),
                  "html": pa.array([], pa.large_binary()),
                  "text": pa.array([], pa.string()),
                  "lang": pa.array([], pa.string())})
    check_schema(t, schemas.PAGES)


def test_check_schema_rejects_wrong_type():
    t = pa.table({"url": pa.array([], pa.int64())})
    with pytest.raises(AssertionError):
        check_schema(t, pa.schema([("url", pa.string())]), where="x")
    with pytest.raises(AssertionError):
        check_schema(t, pa.schema([("other", pa.int64())]))


def test_pipeline_output_schemas_match_declarations(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from action_pdf_accessibility_paddle_docker_ray.corpus import generate_pages
    from action_pdf_accessibility_paddle_docker_ray.pipelines.extract import (
        extract_pipeline,
        spans_dataset,
    )

    path = str(tmp_path / "p.parquet")
    pq.write_table(generate_pages(15, seed=2), path)
    docs = extract_pipeline(path)
    table = pa.Table.from_pandas(docs.to_pandas(), preserve_index=False)
    # pandas round-trip loses exact int widths; check names only + spot types
    assert set(table.column_names) == set(schemas.DOCS.names)
    spans = spans_dataset(docs)
    sp = spans.take_batch(5, batch_format="pyarrow")
    assert set(sp.column_names) == set(schemas.SPANS.names)


def test_stage_protocol_compiles(ray_session):
    import ray.data

    def double(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.set_column(0, "id", pc.multiply(t.column("id"), 2))

    class AddOne:
        def __call__(self, t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            return t.set_column(0, "id", pc.add(t.column("id"), 1))

    schema = pa.schema([("id", pa.int64())])
    ds = ray.data.from_arrow(pa.table({"id": pa.array([1, 2, 3], pa.int64())}))
    out = compile_stages(
        ds,
        [
            Stage("double", fn=double, schema_in=schema, schema_out=schema),
            Stage("addone", fn=AddOne, concurrency=(1, 1)),
        ],
        validate=False,
    )
    assert sorted(out.to_pandas()["id"]) == [3, 5, 7]


def test_stage_protocol_validation_catches_bad_schema(ray_session):
    import ray.data

    def rename(t: pa.Table) -> pa.Table:
        return t.rename_columns(["wrong"])

    schema = pa.schema([("id", pa.int64())])
    ds = ray.data.from_arrow(pa.table({"id": pa.array([1], pa.int64())}))
    out = compile_stages(
        ds, [Stage("rename", fn=rename, schema_out=schema)], validate=True
    )
    with pytest.raises(Exception, match="schema mismatch|RayTaskError"):
        out.to_pandas()
