package kgbench

import org.apache.spark.{ListenerBusDrain, SparkContext}
import org.apache.spark.metrics.source.CodegenMetrics
import org.apache.spark.scheduler._
import org.apache.spark.sql.catalyst.expressions.codegen.CodeGenerator

import scala.collection.mutable

/** Spark work per tagged call, counted from outside the program: a listener
  * the benchmark registers, plus Spark's static codegen counters. A call is
  * tagged by a local property on the driver thread; jobs started without the
  * tag (output checks, set-up) are not counted.
  */
final class SparkCounters(sc: SparkContext) extends SparkListener {
  import SparkCounters._

  private val byTag    = mutable.Map.empty[String, Counts]
  private val stageTag = mutable.Map.empty[Int, String]
  sc.addSparkListener(this)

  private def counts(tag: String): Counts = byTag.getOrElseUpdate(tag, new Counts)

  /** Run `body` as call `tag`, recording its codegen compilations. */
  def tagged[A](tag: String)(body: => A): A = {
    val classes0 = CodegenMetrics.METRIC_COMPILATION_TIME.getCount
    val nanos0   = CodeGenerator.compileTime
    sc.setLocalProperty(TagKey, tag)
    try body
    finally {
      sc.setLocalProperty(TagKey, null)
      synchronized {
        val c = counts(tag)
        c.codegenClasses += CodegenMetrics.METRIC_COMPILATION_TIME.getCount - classes0
        c.codegenNanos   += CodeGenerator.compileTime - nanos0
      }
    }
  }

  /** Counts per tag once every queued listener event has been handled. */
  def snapshot(): Map[String, Counts] = {
    ListenerBusDrain(sc)
    synchronized(byTag.toMap)
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty(TagKey))).foreach { tag =>
      counts(tag).jobs += 1
      e.stageIds.foreach(stageTag(_) = tag)
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stageTag.get(e.stageInfo.stageId).foreach { tag =>
      val c = counts(tag)
      c.stages += 1
      if (e.stageInfo.numTasks == 1) c.oneTaskStages += 1
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageTag.get(e.stageId).foreach { tag =>
      val c = counts(tag)
      c.tasks += 1
      Option(e.taskMetrics).foreach { m =>
        c.taskMs       += m.executorRunTime
        c.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
      }
    }
  }
}

object SparkCounters {
  val TagKey = "kgbench.call"

  final class Counts {
    var jobs, stages, oneTaskStages, tasks, taskMs, shuffleBytes = 0L
    var codegenClasses, codegenNanos = 0L
  }
}
