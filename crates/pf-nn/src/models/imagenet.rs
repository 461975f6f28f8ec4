//! ImageNet-scale networks: AlexNet, VGG-16 and the ResNet family.
//!
//! Layer shapes follow the standard torchvision definitions the paper's
//! PyTorch evaluation uses. Only convolution layers are listed (see the
//! module documentation of [`crate::models`]).

use crate::layers::ConvLayerSpec;
use crate::models::NetworkSpec;

fn conv(
    name: &str,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    input_size: usize,
) -> ConvLayerSpec {
    ConvLayerSpec::new(
        name,
        in_channels,
        out_channels,
        kernel,
        stride,
        input_size,
        true,
    )
    .expect("static layer definitions are valid")
}

/// AlexNet (Krizhevsky et al., 2012): five convolution layers, the first
/// with an 11×11 stride-4 kernel that makes PhotoFourier comparatively
/// inefficient (Section VI-E).
pub fn alexnet() -> NetworkSpec {
    NetworkSpec {
        name: "AlexNet".to_string(),
        input_size: 224,
        num_classes: 1000,
        conv_layers: vec![
            conv("conv1", 3, 64, 11, 4, 224),
            conv("conv2", 64, 192, 5, 1, 27),
            conv("conv3", 192, 384, 3, 1, 13),
            conv("conv4", 384, 256, 3, 1, 13),
            conv("conv5", 256, 256, 3, 1, 13),
        ],
    }
}

/// VGG-16 (Simonyan & Zisserman, 2014): thirteen 3×3 convolution layers.
pub fn vgg16() -> NetworkSpec {
    let mut layers = Vec::new();
    let blocks: [(usize, usize, usize, usize); 5] = [
        // (in_channels at block start, out_channels, convs in block, input size)
        (3, 64, 2, 224),
        (64, 128, 2, 112),
        (128, 256, 3, 56),
        (256, 512, 3, 28),
        (512, 512, 3, 14),
    ];
    for (b, (in_c, out_c, count, size)) in blocks.iter().enumerate() {
        for i in 0..*count {
            let ic = if i == 0 { *in_c } else { *out_c };
            layers.push(conv(
                &format!("conv{}_{}", b + 1, i + 1),
                ic,
                *out_c,
                3,
                1,
                *size,
            ));
        }
    }
    NetworkSpec {
        name: "VGG-16".to_string(),
        input_size: 224,
        num_classes: 1000,
        conv_layers: layers,
    }
}

/// Builds a basic-block ResNet (18 or 34 layers) for 224×224 inputs.
fn resnet_basic(name: &str, blocks_per_stage: [usize; 4]) -> NetworkSpec {
    let mut layers = Vec::new();
    layers.push(conv("conv1", 3, 64, 7, 2, 224));

    let stage_channels = [64usize, 128, 256, 512];
    let stage_inputs = [56usize, 56, 28, 14]; // feature-map size entering each stage
    let mut in_c = 64;
    for (s, &num_blocks) in blocks_per_stage.iter().enumerate() {
        let out_c = stage_channels[s];
        let mut size = stage_inputs[s];
        for b in 0..num_blocks {
            let stride = if s > 0 && b == 0 { 2 } else { 1 };
            layers.push(conv(
                &format!("layer{}_{}_conv1", s + 1, b + 1),
                in_c,
                out_c,
                3,
                stride,
                size,
            ));
            let post = size.div_ceil(stride);
            layers.push(conv(
                &format!("layer{}_{}_conv2", s + 1, b + 1),
                out_c,
                out_c,
                3,
                1,
                post,
            ));
            if stride != 1 || in_c != out_c {
                layers.push(conv(
                    &format!("layer{}_{}_downsample", s + 1, b + 1),
                    in_c,
                    out_c,
                    1,
                    stride,
                    size,
                ));
            }
            in_c = out_c;
            size = post;
        }
    }
    NetworkSpec {
        name: name.to_string(),
        input_size: 224,
        num_classes: 1000,
        conv_layers: layers,
    }
}

/// Builds a bottleneck-block ResNet (50 layers) for 224×224 inputs.
fn resnet_bottleneck(name: &str, blocks_per_stage: [usize; 4]) -> NetworkSpec {
    let mut layers = Vec::new();
    layers.push(conv("conv1", 3, 64, 7, 2, 224));

    let stage_mid = [64usize, 128, 256, 512];
    let stage_inputs = [56usize, 56, 28, 14];
    let expansion = 4;
    let mut in_c = 64;
    for (s, &num_blocks) in blocks_per_stage.iter().enumerate() {
        let mid = stage_mid[s];
        let out_c = mid * expansion;
        let mut size = stage_inputs[s];
        for b in 0..num_blocks {
            let stride = if s > 0 && b == 0 { 2 } else { 1 };
            layers.push(conv(
                &format!("layer{}_{}_conv1", s + 1, b + 1),
                in_c,
                mid,
                1,
                1,
                size,
            ));
            layers.push(conv(
                &format!("layer{}_{}_conv2", s + 1, b + 1),
                mid,
                mid,
                3,
                stride,
                size,
            ));
            let post = size.div_ceil(stride);
            layers.push(conv(
                &format!("layer{}_{}_conv3", s + 1, b + 1),
                mid,
                out_c,
                1,
                1,
                post,
            ));
            if stride != 1 || in_c != out_c {
                layers.push(conv(
                    &format!("layer{}_{}_downsample", s + 1, b + 1),
                    in_c,
                    out_c,
                    1,
                    stride,
                    size,
                ));
            }
            in_c = out_c;
            size = post;
        }
    }
    NetworkSpec {
        name: name.to_string(),
        input_size: 224,
        num_classes: 1000,
        conv_layers: layers,
    }
}

/// ResNet-18 (He et al., 2016).
pub fn resnet18() -> NetworkSpec {
    resnet_basic("ResNet-18", [2, 2, 2, 2])
}

/// ResNet-34.
pub fn resnet34() -> NetworkSpec {
    resnet_basic("ResNet-34", [3, 4, 6, 3])
}

/// ResNet-50 (bottleneck blocks).
pub fn resnet50() -> NetworkSpec {
    resnet_bottleneck("ResNet-50", [3, 4, 6, 3])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alexnet_shape_inventory() {
        let net = alexnet();
        assert_eq!(net.num_conv_layers(), 5);
        assert_eq!(net.conv_layers[0].kernel, 11);
        assert_eq!(net.conv_layers[0].stride, 4);
        // Around 0.66 GMACs in the conv layers of AlexNet.
        let gmacs = net.total_macs() as f64 / 1e9;
        assert!((0.4..1.2).contains(&gmacs), "AlexNet GMACs {gmacs}");
    }

    #[test]
    fn vgg16_shape_inventory() {
        let net = vgg16();
        assert_eq!(net.num_conv_layers(), 13);
        assert!(net
            .conv_layers
            .iter()
            .all(|l| l.kernel == 3 && l.stride == 1));
        // VGG-16 convolution MACs ~ 15.3 GMACs.
        let gmacs = net.total_macs() as f64 / 1e9;
        assert!((14.0..17.0).contains(&gmacs), "VGG-16 GMACs {gmacs}");
        // ~14.7 M conv weights.
        let weights: u64 = net.conv_layers.iter().map(|l| l.weight_count()).sum();
        let mw = weights as f64 / 1e6;
        assert!((13.0..16.0).contains(&mw), "VGG-16 conv weights {mw} M");
    }

    #[test]
    fn resnet18_shape_inventory() {
        let net = resnet18();
        // 1 stem + 2 convs * 8 blocks + 3 downsamples = 20 conv layers.
        assert_eq!(net.num_conv_layers(), 20);
        let gmacs = net.total_macs() as f64 / 1e9;
        assert!((1.5..2.2).contains(&gmacs), "ResNet-18 GMACs {gmacs}");
        // ~11 M conv weights.
        let weights: u64 = net.conv_layers.iter().map(|l| l.weight_count()).sum();
        let mw = weights as f64 / 1e6;
        assert!((10.0..12.5).contains(&mw), "ResNet-18 conv weights {mw} M");
    }

    #[test]
    fn resnet34_shape_inventory() {
        let net = resnet34();
        // 1 stem + 2*16 + 3 downsamples = 36.
        assert_eq!(net.num_conv_layers(), 36);
        let gmacs = net.total_macs() as f64 / 1e9;
        assert!((3.2..4.2).contains(&gmacs), "ResNet-34 GMACs {gmacs}");
        // The paper notes ResNet-34 has 18 conv layers with inputs <= 14x14.
        let small_inputs = net
            .conv_layers
            .iter()
            .filter(|l| l.input_size <= 14)
            .count();
        assert!(
            (16..=20).contains(&small_inputs),
            "ResNet-34 late layers {small_inputs}"
        );
    }

    #[test]
    fn resnet50_shape_inventory() {
        let net = resnet50();
        // 1 stem + 3*16 + 4 downsamples = 53.
        assert_eq!(net.num_conv_layers(), 53);
        let gmacs = net.total_macs() as f64 / 1e9;
        assert!((3.5..4.5).contains(&gmacs), "ResNet-50 GMACs {gmacs}");
    }

    #[test]
    fn feature_map_sizes_are_consistent() {
        // Every layer's output feeds a later layer of matching input size at
        // least once (coarse sanity check on the hand-written inventories).
        for net in [alexnet(), vgg16(), resnet18(), resnet34(), resnet50()] {
            for layer in &net.conv_layers {
                assert!(layer.output_size() > 0, "{}: {}", net.name, layer.name);
                assert!(layer.input_size <= 224);
            }
        }
    }
}
