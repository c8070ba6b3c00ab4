package kgbench

import java.io.{File, PrintWriter}

import scala.collection.mutable.ArrayBuffer

/** One timed call into a module. `layer` is the first component of `name`. */
final case class Span(id: Int, parent: Int, name: String, op: Long, startNs: Long, endNs: Long) {
  def layer: String = name.takeWhile(_ != '.')
  def ms: Double = (endNs - startNs) / 1e6
  /** Part of a measured op (not set-up, not warm-up). */
  def measured: Boolean = op >= 0 && op < Workload.WarmupBase
}

/** Spans around the calls the benchmark makes into each module, kept in
  * memory and written as JSON lines at exit. When disabled, `span` only
  * evaluates its body.
  */
final class Tracer(val enabled: Boolean) {
  private val spans = ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  /** Op id stamped on new spans; -1 during set-up. */
  var op: Long = -1L

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = spans.size
      spans += null // reserve the id so children can name their parent
      val parent = open.headOption.getOrElse(-1)
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        spans(id) = Span(id, parent, name, op, t0, System.nanoTime())
        open = open.tail
      }
    }

  def all: Seq[Span] = spans.toSeq

  /** Durations in ms of the spans called `name` that `keep` selects, in call order. */
  def durations(name: String, keep: Span => Boolean = _ => true): Seq[Double] =
    spans.iterator.filter(s => s.name == name && keep(s)).map(_.ms).toSeq

  /** Self time (duration minus the time covered by child spans) summed per
    * layer, over the spans that `keep` selects. Children of one span run one
    * after another on the driver thread, so their durations do not overlap.
    */
  def selfMsByLayer(keep: Span => Boolean): Map[String, Double] = {
    val childNs = new Array[Long](spans.size)
    spans.foreach(s => if (s.parent >= 0) childNs(s.parent) += s.endNs - s.startNs)
    spans.filter(keep).groupBy(_.layer).map { case (layer, ss) =>
      layer -> ss.map(s => (s.endNs - s.startNs - childNs(s.id)) / 1e6).sum
    }
  }

  def write(file: File): Unit = {
    Option(file.getParentFile).foreach(_.mkdirs())
    val out = new PrintWriter(file, "UTF-8")
    try spans.foreach { s =>
      out.println(s"""{"id":${s.id},"parent":${s.parent},"name":"${s.name}","op":${s.op},""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs}}""")
    } finally out.close()
  }
}
