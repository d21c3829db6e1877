//! `job::load_records` on a BLAST database, whose sequence and
//! description payload follows the index region: a `records` bound reads
//! only the header and the index, and every refusal keeps its message.

use mublastp::dbgen::DbSpec;
use papar_config::InputConfig;
use papar_record::Schema;
use papar_serve::job::load_records;
use std::path::PathBuf;

const SEQUENCES: usize = 300;

fn config() -> (InputConfig, Schema) {
    let text = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/configs/blast_db.xml"),
    )
    .unwrap();
    let cfg = InputConfig::parse_str(&text).unwrap();
    let schema = Schema::from_input_config(&cfg);
    (cfg, schema)
}

/// A scratch dir holding `bytes` as `name`; returns the file's path.
fn scratch_file(tag: &str, name: &str, bytes: &[u8]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("papar-load-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, bytes).unwrap();
    path
}

#[test]
fn bounded_read_matches_the_whole_file_decode() {
    let (cfg, schema) = config();
    let db = DbSpec::env_nr_scaled(SEQUENCES, 5).generate();
    let bytes = db.to_bytes();
    let path = scratch_file("bounded", "env_nr.db", &bytes);

    let bounded = load_records(&cfg, &schema, &path, Some(SEQUENCES)).unwrap();
    assert_eq!(bounded, db.index_records());

    // Without a bound the payload decodes as index entries too: the
    // whole file is read.
    let whole = load_records(&cfg, &schema, &path, None).unwrap();
    assert_eq!(whole.len(), (bytes.len() - 32) / 16);
    assert!(whole.len() > SEQUENCES);
    assert_eq!(&whole[..SEQUENCES], &bounded[..]);
}

#[test]
fn oversized_records_and_short_files_keep_their_errors() {
    let (cfg, schema) = config();
    let bytes = DbSpec::env_nr_scaled(SEQUENCES, 5).generate().to_bytes();
    let path = scratch_file("errors", "env_nr.db", &bytes);

    let n = bytes.len() / 16;
    let err = load_records(&cfg, &schema, &path, Some(n)).unwrap_err();
    assert_eq!(
        err,
        format!(
            "--records {n} wants {} bytes after the header, file has {}",
            n * 16,
            bytes.len() - 32
        )
    );

    let short = scratch_file("short", "short.db", &bytes[..10]);
    for records in [None, Some(1)] {
        let err = load_records(&cfg, &schema, &short, records).unwrap_err();
        assert_eq!(
            err,
            format!("{} is shorter than start_position 32", short.display())
        );
    }

    let missing = short.with_file_name("missing.db");
    let err = load_records(&cfg, &schema, &missing, Some(1)).unwrap_err();
    assert!(err.starts_with(&format!("cannot read {}: ", missing.display())));
}
