//! Property tests of the content-addressed layer store: under arbitrary
//! add/remove sequences, ref-counting never leaks or double-frees, and
//! `missing_layers` is always exactly the complement of what is on disk.

use std::collections::{HashMap, HashSet};

use crate::image::synthesize_layers;
use crate::{ImageManifest, ImageStore};
use proptest::prelude::*;

/// A small universe of images with deliberately overlapping layers.
fn universe() -> Vec<ImageManifest> {
    let base = synthesize_layers(1, 50_000_000, 4);
    let mut shared_a = base.clone();
    shared_a.extend(synthesize_layers(2, 10_000_000, 2));
    let mut shared_b = base.clone();
    shared_b.extend(synthesize_layers(3, 5_000_000, 1));
    vec![
        ImageManifest::new("base:1", base),
        ImageManifest::new("app-a:1", shared_a),
        ImageManifest::new("app-b:1", shared_b),
        ImageManifest::new("standalone:1", synthesize_layers(4, 7_000_000, 3)),
    ]
}

#[derive(Debug, Clone)]
enum Op {
    Add(usize),
    Remove(usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0usize..4).prop_map(Op::Add),
            (0usize..4).prop_map(Op::Remove),
        ],
        0..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn refcounts_match_reference(ops in ops()) {
        let images = universe();
        let mut store = ImageStore::new();
        let mut present: HashSet<usize> = HashSet::new();

        for op in ops {
            match op {
                Op::Add(i) => {
                    store.add_image(images[i].clone());
                    present.insert(i);
                }
                Op::Remove(i) => {
                    let removed = store.remove_image(&images[i].reference);
                    prop_assert_eq!(removed, present.remove(&i));
                }
            }

            // Reference layer set: union of layers of present images.
            let mut expected: HashMap<u64, u64> = HashMap::new();
            for &i in &present {
                for l in &images[i].layers {
                    expected.insert(l.digest.0, l.uncompressed_bytes);
                }
            }
            let stats = store.stats();
            prop_assert_eq!(stats.images, present.len());
            prop_assert_eq!(stats.layers, expected.len());
            prop_assert_eq!(stats.disk_bytes, expected.values().sum::<u64>());

            // missing_layers is exactly the complement for every image.
            for img in &images {
                let missing = store.missing_layers(img);
                for l in &img.layers {
                    let on_disk = expected.contains_key(&l.digest.0);
                    let reported_missing = missing.iter().any(|m| m.digest == l.digest);
                    prop_assert_eq!(
                        on_disk, !reported_missing,
                        "layer {} of {}", l.digest, img.reference
                    );
                }
            }

            // has_image agrees with the model.
            for (i, img) in images.iter().enumerate() {
                prop_assert_eq!(store.has_image(&img.reference), present.contains(&i));
            }
        }
    }

    #[test]
    fn interleaved_add_remove_never_leaks(seq in ops()) {
        let images = universe();
        let mut store = ImageStore::new();
        for op in seq {
            match op {
                Op::Add(i) => store.add_image(images[i].clone()),
                Op::Remove(i) => { store.remove_image(&images[i].reference); }
            }
        }
        // removing everything leaves an empty store
        for img in &images {
            store.remove_image(&img.reference);
        }
        let stats = store.stats();
        prop_assert_eq!(stats.images, 0);
        prop_assert_eq!(stats.layers, 0, "leaked layers");
        prop_assert_eq!(stats.disk_bytes, 0);
    }
}
