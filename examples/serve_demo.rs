//! Traffic serving through the `pf-serve` micro-batching server:
//! submit → ticket → result, with the server's latency accounting printed
//! at the end.
//!
//! ```text
//! cargo run --release --example serve_demo
//! ```

use photofourier::prelude::*;
use photofourier::serve;

fn main() -> Result<(), PfError> {
    // The committed serving scenario: ResNet-18 shapes on the ideal JTC
    // optics, micro-batches of up to 8 requests, a 2 ms batch-formation
    // window, a 64-request admission queue.
    let scenario = Scenario::from_path("scenarios/serving_resnet18.toml")?;
    let spec = scenario.serving.clone().unwrap_or_default();
    println!(
        "serving `{}` on {} (max_batch {}, batch timeout {} us, queue depth {})",
        scenario.name,
        scenario.backend.kind,
        spec.max_batch,
        spec.batch_timeout_us,
        spec.queue_depth
    );

    // `serve_scenario` builds the session, lowers the network's layers
    // (their kernel sets prepared once), and starts the batcher workers.
    let server = serve::serve_scenario(scenario)?;

    // A burst of concurrent clients: each submits a request, holds the
    // ticket, and waits for its result — exactly the submit → ticket →
    // result flow a real frontend would run.
    let total = 48;
    let clients = 6;
    std::thread::scope(|scope| {
        for client in 0..clients {
            let server = &server;
            scope.spawn(move || {
                for k in 0..total / clients {
                    let image =
                        Tensor::random(vec![1, 16, 16], 0.0, 1.0, (client * 1000 + k) as u64);
                    let ticket = server.submit(image).expect("queue has room");
                    let seq = ticket.seq();
                    let features = ticket.wait().expect("request served");
                    if k == 0 {
                        println!(
                            "client {client}: request #{seq} -> {} features",
                            features.numel()
                        );
                    }
                }
            });
        }
    });

    // Shutdown drains deterministically and settles the accounting.
    let stats = server.shutdown()?;
    println!();
    println!(
        "submitted {}  served {}  rejected {}",
        stats.submitted, stats.served, stats.rejected
    );
    println!(
        "latency    p50 {:.3} ms   p95 {:.3} ms   p99 {:.3} ms   max {:.3} ms",
        stats.latency.p50_ms, stats.latency.p95_ms, stats.latency.p99_ms, stats.latency.max_ms
    );
    println!(
        "queue wait p50 {:.3} ms   p99 {:.3} ms",
        stats.queue_wait.p50_ms, stats.queue_wait.p99_ms
    );
    print!("achieved batch sizes: ");
    for bucket in &stats.batch_histogram {
        print!("{}x{} ", bucket.count, bucket.size);
    }
    println!("(mean {:.2})", stats.mean_batch_size());
    println!("throughput {:.1} req/s", stats.throughput_rps);
    Ok(())
}
