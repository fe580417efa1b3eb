//! The image **serving front**: whole-image requests over one warm
//! [`sc_graph::Service`].
//!
//! [`ImageServer`] is the long-lived counterpart of the one-shot
//! [`crate::run_sc_pipeline`] family. It keeps three things warm across
//! requests: the service's worker pool (no per-image thread spin-up), the
//! shared [`TilePlanner`] (one per-class plan cache for *all* requests, so a
//! request whose tile classes were already compiled plans without building
//! a graph: a pixel gather and two seed bindings per tile),
//! and the service's intake (the workers take tiles of concurrently
//! submitted images round-robin and run each solo on the shared pool).
//!
//! [`ImageServer::submit`] decomposes the image into per-tile
//! [`sc_graph::StreamJob`]s (raster order, so per-request select seeds — and
//! therefore pixels — are bit-identical to the one-shot pipeline), submits
//! them as one [`sc_graph::Request`], and returns an [`ImageHandle`] that
//! assembles the output image on [`ImageHandle::wait`]. Submission blocks
//! when the service's bounded intake is full ([`ImageServer::try_submit`]
//! fails fast instead); per-request deadlines and cancellation pass straight
//! through to the service.

use crate::assemble::{scatter_sinks, TileSinks};
use crate::image::{GrayImage, ImageError};
use crate::pipeline::{PipelineConfig, PipelineStats, PipelineVariant};
use crate::planner::{tile_origins, TilePlanner};
use sc_graph::{
    Request, RequestAttribution, RequestError, RequestHandle, Service, ServiceConfig, StreamJob,
    SubmitError,
};
use sc_telemetry::TelemetrySink;
use std::sync::Mutex;
use std::time::Instant;

/// Builder for an [`ImageServer`]; see [`ImageServer::builder`].
#[derive(Debug, Clone)]
pub struct ImageServerBuilder {
    variant: PipelineVariant,
    config: PipelineConfig,
}

impl ImageServerBuilder {
    /// Sets [`PipelineConfig::threads`], the server's worker-thread count
    /// (default: available parallelism).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.config = self.config.with_threads(threads);
        self
    }

    /// Starts the server: spins up the warm service and the shared planner.
    ///
    /// # Errors
    ///
    /// Rejects the configurations the one-shot pipeline rejects (see
    /// [`crate::run_sc_pipeline`]).
    pub fn start(self) -> Result<ImageServer, ImageError> {
        let service_config = ServiceConfig::new(self.config.stream_length)
            .with_threads(self.config.checked_threads()?)
            .with_telemetry(self.config.telemetry.clone());
        let planner = TilePlanner::new(self.variant, self.config.clone());
        Ok(ImageServer {
            service: Service::start(service_config),
            planner: Mutex::new(planner),
            telemetry: self.config.telemetry.clone(),
        })
    }
}

/// Why an image submission did not enter the service. Unlike
/// [`sc_graph::SubmitError`] there is no payload to hand back — the caller
/// still owns the input image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageSubmitError {
    /// Non-blocking submit on a full intake queue.
    Rejected,
    /// The deadline had already expired at submit time.
    Expired,
    /// The server is shutting down.
    ShutDown,
}

impl std::fmt::Display for ImageSubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageSubmitError::Rejected => write!(f, "intake queue full"),
            ImageSubmitError::Expired => write!(f, "deadline expired at submit"),
            ImageSubmitError::ShutDown => write!(f, "image server shut down"),
        }
    }
}

impl std::error::Error for ImageSubmitError {}

impl From<SubmitError> for ImageSubmitError {
    fn from(err: SubmitError) -> Self {
        match err {
            SubmitError::Rejected(_) => ImageSubmitError::Rejected,
            SubmitError::Expired(_) => ImageSubmitError::Expired,
            SubmitError::ShutDown(_) => ImageSubmitError::ShutDown,
        }
    }
}

/// A completed image request: the rendered output plus its serving-tier
/// accounting (a per-image view over [`sc_graph::RequestReport`]).
#[derive(Debug, Clone)]
pub struct ImageResponse {
    /// The edge-magnitude output image.
    pub image: GrayImage,
    /// Tiles the request decomposed into.
    pub tiles: usize,
    /// Wall-clock attribution across the serving stages
    /// (submit → queue-wait → execute → assemble, summing to `wall_ns`).
    pub attribution: RequestAttribution,
    /// Always 0: lane batching was removed and every tile runs solo. Kept
    /// only because the benchmark crate reads it; retired by the next
    /// benchmark change.
    pub lane_batched_jobs: usize,
    /// Always 0, like `lane_batched_jobs`: no tile shares a lane group with
    /// another request's tile. Kept only because the benchmark crate reads
    /// it; retired by the next benchmark change.
    pub cross_request_lane_jobs: usize,
    /// Planning-side accounting for this request: tiles planned and
    /// plan-cache compilations.
    pub planning: PipelineStats,
}

/// An in-flight image request; resolves on [`wait`](ImageHandle::wait).
pub struct ImageHandle {
    handle: RequestHandle,
    sinks: Vec<TileSinks>,
    width: usize,
    height: usize,
    planning: PipelineStats,
    telemetry: TelemetrySink,
}

impl std::fmt::Debug for ImageHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ImageHandle")
            .field("id", &self.handle.id())
            .field("tiles", &self.sinks.len())
            .finish_non_exhaustive()
    }
}

impl ImageHandle {
    /// The underlying request id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.handle.id()
    }

    /// Whether the request has already finished (completed or failed).
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.handle.is_finished()
    }

    /// Requests cancellation: undispatched tiles are dropped and already
    /// completed tile results are discarded; `wait` reports
    /// [`RequestError::Cancelled`].
    pub fn cancel(&self) {
        self.handle.cancel();
    }

    /// Blocks until the request resolves and assembles the output image.
    ///
    /// # Errors
    ///
    /// Propagates the request's [`RequestError`]: the deterministic
    /// first-failing-tile error, cancellation, deadline expiry, or server
    /// shutdown.
    pub fn wait(self) -> Result<ImageResponse, RequestError> {
        let report = self.handle.wait()?;
        let mut image = GrayImage::filled(self.width, self.height, 0.0);
        scatter_sinks(&mut image, &self.sinks, &report.outputs, &self.telemetry);
        Ok(ImageResponse {
            image,
            tiles: report.outputs.len(),
            attribution: report.attribution,
            lane_batched_jobs: 0,
            cross_request_lane_jobs: 0,
            planning: self.planning,
        })
    }
}

/// The warm image server; see the [module docs](self).
pub struct ImageServer {
    service: Service,
    planner: Mutex<TilePlanner>,
    telemetry: TelemetrySink,
}

impl ImageServer {
    /// A server for one variant + configuration, sized by the config's
    /// `threads`.
    ///
    /// # Errors
    ///
    /// As [`ImageServerBuilder::start`].
    pub fn start(
        variant: PipelineVariant,
        config: PipelineConfig,
    ) -> Result<ImageServer, ImageError> {
        ImageServer::builder(variant, config).start()
    }

    /// A builder with default sizing for one variant + configuration.
    #[must_use]
    pub fn builder(variant: PipelineVariant, config: PipelineConfig) -> ImageServerBuilder {
        ImageServerBuilder { variant, config }
    }

    /// The telemetry sink the server (and its service) records into.
    #[must_use]
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.telemetry
    }

    /// Compiled tile classes currently held by the shared plan cache.
    #[must_use]
    pub fn cached_classes(&self) -> usize {
        self.planner
            .lock()
            .expect("planner lock is never poisoned")
            .cached_classes()
    }

    /// Submits a whole image, blocking while the service intake is full;
    /// producers slow down to the service's pace rather than queueing
    /// unboundedly.
    ///
    /// # Errors
    ///
    /// [`ImageSubmitError::ShutDown`] if the server is stopping.
    pub fn submit(&self, image: &GrayImage) -> Result<ImageHandle, ImageSubmitError> {
        self.submit_request(image, None, false)
    }

    /// Like [`submit`](Self::submit) with an absolute deadline: expired-at-
    /// submit requests fail fast with [`ImageSubmitError::Expired`]; in-
    /// flight expiry drops the request's remaining tiles.
    ///
    /// # Errors
    ///
    /// [`ImageSubmitError::Expired`] or [`ImageSubmitError::ShutDown`].
    pub fn submit_with_deadline(
        &self,
        image: &GrayImage,
        deadline: Instant,
    ) -> Result<ImageHandle, ImageSubmitError> {
        self.submit_request(image, Some(deadline), false)
    }

    /// Non-blocking submit: fails with [`ImageSubmitError::Rejected`]
    /// instead of waiting when the intake is full, so load-shedding
    /// producers can drop or retry on their own schedule.
    ///
    /// # Errors
    ///
    /// [`ImageSubmitError::Rejected`], [`ImageSubmitError::Expired`], or
    /// [`ImageSubmitError::ShutDown`].
    pub fn try_submit(&self, image: &GrayImage) -> Result<ImageHandle, ImageSubmitError> {
        self.submit_request(image, None, true)
    }

    fn submit_request(
        &self,
        image: &GrayImage,
        deadline: Option<Instant>,
        non_blocking: bool,
    ) -> Result<ImageHandle, ImageSubmitError> {
        // Plan all tiles up front under the shared planner lock: requests
        // plan one at a time (compilation is already amortised by the shared
        // cache), while execution below multiplexes freely.
        let mut planner = self.planner.lock().expect("planner lock is never poisoned");
        let tile_size = planner.config().tile_size;
        let origins = tile_origins(image, tile_size);
        let mut planning = PipelineStats::default();
        let mut jobs = Vec::with_capacity(origins.len());
        let mut sinks = Vec::with_capacity(origins.len());
        for (tile_index, &(x0, y0)) in origins.iter().enumerate() {
            let planned = planner.plan_tile(image, x0, y0, tile_index as u64, &mut planning);
            sinks.push(planned.sinks);
            jobs.push(StreamJob {
                plan: planned.plan,
                input: planned.input,
            });
        }
        drop(planner);
        let mut request = Request::new(jobs);
        request.deadline = deadline;
        let handle = if non_blocking {
            self.service.try_submit(request)?
        } else {
            self.service.submit(request)?
        };
        Ok(ImageHandle {
            handle,
            sinks,
            width: image.width(),
            height: image.height(),
            planning,
            telemetry: self.telemetry.clone(),
        })
    }
}
