//! Checkpoint images, pinned byte for byte.
//!
//! A checkpoint's `.snap` file and `snapshot::to_bytes` must be the same
//! image, and that image must not move when the writer changes: files
//! written by earlier builds have to keep opening, and a later build has
//! to write exactly what they would have. Each case checkpoints a fixed
//! relation into a fresh durable directory and pins `pages::checksum` of
//! the file, of `to_bytes` and of the MANIFEST.

use simq_index::{RTree, RTreeConfig};
use simq_series::features::FeatureScheme;
use simq_storage::pages::{self, PAGE_PAYLOAD, PAGE_SIZE};
use simq_storage::snapshot;
use simq_storage::{CheckpointSource, DurableDir, SeriesRelation, SnapshotEntry};
use std::path::PathBuf;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "simq-checkpoint-image-{tag}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// `rows` deterministic series of length 32; row `i` is named by
/// `name(i)`.
fn relation(rows: usize, name: impl Fn(usize) -> String) -> SeriesRelation {
    let mut rel = SeriesRelation::new("walks", 32, FeatureScheme::paper_default());
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..rows {
        let mut level = 0.0;
        let series: Vec<f64> = (0..32)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                level += ((state >> 40) % 17) as f64 / 4.0 - 2.0;
                level
            })
            .collect();
        rel.insert(name(i), series).unwrap();
    }
    rel
}

/// The stream length a paged image's superblock records.
fn stream_len(image: &[u8]) -> usize {
    u64::from_le_bytes(image[24..32].try_into().unwrap()) as usize
}

/// How a case's tree is built, if it has one.
#[derive(Clone, Copy)]
enum Tree {
    None,
    BulkLoaded,
    /// Inserted point by point, so the image holds a tree that splits
    /// and forced reinsertion built.
    Incremental,
}

/// Checkpoints `rel` (with its tree built as asked) into a fresh
/// directory and returns the checksums of the `.snap` file, of `to_bytes`
/// and of the MANIFEST, checking on the way that the file is `to_bytes`.
fn hashes(tag: &str, rel: &SeriesRelation, how: Tree) -> [u64; 3] {
    let dir = tmp(tag);
    let tree = match how {
        Tree::None => None,
        Tree::BulkLoaded => Some(rel.build_index(RTreeConfig::default())),
        Tree::Incremental => {
            let mut tree = RTree::new(rel.scheme().space(), RTreeConfig::default());
            for (pos, row) in rel.rows().enumerate() {
                tree.insert_point(&row.features.point, pos as u64);
            }
            Some(tree)
        }
    };
    let mut store = DurableDir::create(&dir).unwrap();
    store
        .checkpoint(&[CheckpointSource {
            name: rel.name(),
            sharded: false,
            shards: vec![(rel, tree.as_ref(), true)],
        }])
        .unwrap();
    let file = std::fs::read(dir.join("r0.s0.e1.snap")).unwrap();
    let image = snapshot::to_bytes(rel, tree.as_ref());
    assert!(file == image, "{tag}: the checkpoint file is not to_bytes");
    assert_eq!(file.len() % PAGE_SIZE, 0);
    let manifest = std::fs::read(dir.join("MANIFEST")).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    [
        pages::checksum(&file),
        pages::checksum(&image),
        pages::checksum(&manifest),
    ]
}

#[test]
fn checkpoint_images_are_pinned() {
    let row_name = |i: usize| format!("W{i:03}");
    let rel = relation(40, row_name);
    let empty = relation(0, row_name);
    // One row whose name pads the stream to exactly two pages of payload:
    // the last data page is full and no empty page may follow it.
    let unpadded = stream_len(&snapshot::to_bytes(&relation(1, |_| String::new()), None));
    let pad = 2 * PAGE_PAYLOAD - unpadded;
    let exact = relation(1, |_| "x".repeat(pad));
    let exact_image = snapshot::to_bytes(&exact, None);
    assert_eq!(stream_len(&exact_image), 2 * PAGE_PAYLOAD);
    assert_eq!(exact_image.len(), 3 * PAGE_SIZE);

    let got = [
        hashes("bulk", &rel, Tree::BulkLoaded),
        hashes("incremental", &relation(300, row_name), Tree::Incremental),
        hashes("no-tree", &rel, Tree::None),
        hashes("empty", &empty, Tree::None),
        hashes("empty-tree", &empty, Tree::BulkLoaded),
        hashes("exact", &exact, Tree::None),
    ];
    // File, to_bytes, MANIFEST, recorded at image version 3, whose trees'
    // leaves hold row positions. The bulk-loaded tree's row was re-recorded
    // when STR came to cut only the coefficient dimensions.
    let want: [[u64; 3]; 6] = [
        // bulk-loaded tree
        [
            0xb966_3d3e_4bf0_f576,
            0xb966_3d3e_4bf0_f576,
            0x4662_2cde_5266_669b,
        ],
        // incremental tree
        [
            0x9679_9529_3432_56d3,
            0x9679_9529_3432_56d3,
            0x4662_2cde_5266_669b,
        ],
        // no tree
        [
            0x3eed_dc89_d786_02c2,
            0x3eed_dc89_d786_02c2,
            0x4662_2cde_5266_669b,
        ],
        // empty relation
        [
            0x5d93_9134_d2a3_5cda,
            0x5d93_9134_d2a3_5cda,
            0x4662_2cde_5266_669b,
        ],
        // empty relation, empty tree
        [
            0xdaf7_a179_fc38_27f2,
            0xdaf7_a179_fc38_27f2,
            0x4662_2cde_5266_669b,
        ],
        // stream of exactly two pages
        [
            0x28ca_c216_287f_8b39,
            0x28ca_c216_287f_8b39,
            0x4662_2cde_5266_669b,
        ],
    ];
    assert_eq!(got, want, "{got:#018x?}");
}

/// A checkpoint whose write fails leaves no temporary file behind, and the
/// directory still opens to the previous epoch.
#[test]
fn failed_checkpoint_leaves_the_previous_epoch() {
    let dir = tmp("failed");
    let rel = relation(12, |i| format!("F{i}"));
    let mut store = DurableDir::create(&dir).unwrap();
    let source = |rel| CheckpointSource {
        name: "walks",
        sharded: false,
        shards: vec![(rel, None, true)],
    };
    store.checkpoint(&[source(&rel)]).unwrap();
    // A directory at epoch 2's checkpoint path makes its rename fail.
    std::fs::create_dir(dir.join("r0.s0.e2.snap")).unwrap();
    let bigger = relation(20, |i| format!("F{i}"));
    assert!(store.checkpoint(&[source(&bigger)]).is_err());
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        names.iter().all(|n| !n.ends_with(".tmp")),
        "temporary file left behind: {names:?}"
    );
    std::fs::remove_dir(dir.join("r0.s0.e2.snap")).unwrap();
    let (reopened, entries, _) = DurableDir::open(&dir).unwrap();
    assert_eq!(reopened.manifest().epoch, 1);
    let SnapshotEntry::Single(single) = &entries[0] else {
        panic!("unsharded entry expected");
    };
    assert_eq!(single.relation.len(), 12);
    std::fs::remove_dir_all(&dir).ok();
}
