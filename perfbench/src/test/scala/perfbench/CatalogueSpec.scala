package perfbench

import java.io.File

import com.fasterxml.jackson.databind.{JsonNode, ObjectMapper}
import org.scalatest.funsuite.AnyFunSuite

import scala.jdk.CollectionConverters._

/** `BENCHMARK.json` at the repository root names what this bench prints. */
class CatalogueSpec extends AnyFunSuite {

  private lazy val spec: JsonNode = new ObjectMapper().readTree(new File("../BENCHMARK.json"))

  private def metrics(key: String): Seq[(String, String, String)] =
    spec.get(key).elements().asScala.toSeq.map(m => (m.get("name").asText, m.get("unit").asText, m.get("better").asText))

  test("end-to-end metrics match the catalogue") {
    assert(metrics("end_to_end") == Catalogue.endToEnd.map(m => (m.name, m.unit, m.better)))
  }

  test("per-layer metrics match the catalogue") {
    assert(metrics("per_layer") == Catalogue.perLayer.map(m => (m.name, m.unit, m.better)))
  }

  test("every listed workload exists") {
    val names = spec.get("workloads").elements().asScala.map(_.get("name").asText).toSeq
    assert(names.nonEmpty)
    assert(names.forall(n => Workload.byName(n).isDefined), names)
  }
}
